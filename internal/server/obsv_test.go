package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tcstudy/internal/obsv"

	"tcstudy/internal/api"
)

func scrape(t *testing.T, url string) (string, map[string]*obsv.Family) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obsv.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("scrape does not parse as exposition format: %v\n%s", err, body)
	}
	return string(body), fams
}

// TestMetricsPrometheusScrape validates the default /metrics payload
// against the exposition-format checker — every family carries HELP and
// TYPE, no duplicates, parseable samples — and that counters are monotone
// across two scrapes with traffic in between.
func TestMetricsPrometheusScrape(t *testing.T) {
	_, ts, _ := newTestServer(t, 300, Options{})

	postQuery(t, ts.URL, map[string]any{"algorithm": "btc", "sources": []int32{3, 9}})
	text, first := scrape(t, ts.URL)

	for _, name := range []string{
		"tc_uptime_seconds", "tc_requests_total", "tc_cache_hits_total",
		"tc_cache_misses_total", "tc_index_hits_total",
		"tc_reach_engine_fallback_total", "tc_deduplicated_total",
		"tc_rejected_total", "tc_timeouts_total", "tc_storage_faults_total",
		"tc_errors_total", "tc_slow_queries_total", "tc_pages_served_total",
		"tc_tuples_served_total", "tc_in_flight", "tc_admission_queue_depth",
		"tc_admission_queue_capacity", "tc_request_duration_seconds",
		"tc_buffer_hit_ratio", "tc_engine_phase_seconds",
	} {
		if first[name] == nil {
			t.Errorf("family %s missing from scrape:\n%s", name, text)
		}
	}
	// One executed btc query: its phase histograms must be labelled.
	if !strings.Contains(text, `tc_engine_phase_seconds_count{algorithm="btc",phase="compute"}`) {
		t.Errorf("no btc compute phase histogram in scrape:\n%s", text)
	}

	// More traffic, then re-scrape: every counter must be monotone.
	postQuery(t, ts.URL, map[string]any{"algorithm": "warren"})
	var reach api.ReachResponse
	getJSON(t, ts.URL+"/v1/reach?src=3&dst=9", &reach)
	_, second := scrape(t, ts.URL)
	for name, fam := range first {
		if fam.Type != "counter" {
			continue
		}
		v1, ok1 := obsv.CounterValue(first, name)
		v2, ok2 := obsv.CounterValue(second, name)
		if !ok1 || !ok2 {
			t.Errorf("%s missing from a scrape", name)
			continue
		}
		if v2 < v1 {
			t.Errorf("%s decreased between scrapes: %v -> %v", name, v1, v2)
		}
	}
	if v, _ := obsv.CounterValue(second, "tc_requests_total"); v < 3 {
		t.Errorf("tc_requests_total = %v after 3 requests", v)
	}
	if v, _ := obsv.CounterValue(second, "tc_reach_engine_fallback_total"); v != 1 {
		t.Errorf("tc_reach_engine_fallback_total = %v, want 1 (no index loaded)", v)
	}
}

// TestMetricsJSONFallback keeps the pre-Prometheus JSON shape reachable
// for existing consumers.
func TestMetricsJSONFallback(t *testing.T) {
	_, ts, _ := newTestServer(t, 200, Options{})
	postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{5}})
	var snap api.Snapshot
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != http.StatusOK {
		t.Fatalf("json metrics returned %d", code)
	}
	if snap.Queries != 1 || snap.CacheMisses != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestSlowQueryLog drives a query through a server whose slow threshold is
// one nanosecond, so everything is slow, and checks the log line carries a
// replayable tcquery command and the counter moves.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s, ts, _ := newTestServer(t, 300, Options{
		SlowQuery:  time.Nanosecond,
		ReplayArgs: "-n 300 -f 4 -l 40 -seed 7",
		SlowLogf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	postQuery(t, ts.URL, map[string]any{
		"algorithm": "btc", "sources": []int32{3, 9}, "buffer_pages": 12,
	})
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("got %d slow-log lines, want 1: %q", len(lines), lines)
	}
	line := lines[0]
	for _, want := range []string{
		"slow query:",
		"algorithm=btc",
		"elapsed=",
		`replay="tcquery -n 300 -f 4 -l 40 -seed 7 -alg btc -sources 3,9 -m 12 -pagepolicy lru -listpolicy smallest -trace"`,
		"compute_io=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-log line missing %q:\n%s", want, line)
		}
	}
	if got := s.Metrics().SlowQueries.Load(); got != 1 {
		t.Errorf("SlowQueries = %d, want 1", got)
	}
}

// TestDebugTraces exercises the trace ring: span trees with engine phase
// children appear newest-first, the cached re-run is flagged, and a server
// without tracing reports the endpoint as disabled.
func TestDebugTraces(t *testing.T) {
	_, ts, _ := newTestServer(t, 300, Options{TraceBuffer: 8})
	postQuery(t, ts.URL, map[string]any{"algorithm": "btc", "sources": []int32{3, 9}})
	postQuery(t, ts.URL, map[string]any{"algorithm": "btc", "sources": []int32{3, 9}}) // cache hit

	var out struct {
		Enabled bool         `json:"enabled"`
		Traces  []TraceEntry `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &out); code != http.StatusOK {
		t.Fatalf("/debug/traces returned %d", code)
	}
	if !out.Enabled {
		t.Fatal("tracing reported disabled")
	}
	if len(out.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(out.Traces))
	}
	newest, oldest := out.Traces[0], out.Traces[1]
	if !newest.Cached || oldest.Cached {
		t.Fatalf("newest.Cached=%v oldest.Cached=%v, want true/false", newest.Cached, oldest.Cached)
	}
	if len(oldest.Spans) != 1 {
		t.Fatalf("executed query has %d root spans, want 1", len(oldest.Spans))
	}
	root := oldest.Spans[0]
	if root.Name != "query" {
		t.Fatalf("root span %q, want query", root.Name)
	}
	var phases []string
	root.Visit(func(r obsv.Record) {
		if r.Name == "restructure" || r.Name == "compute" {
			phases = append(phases, r.Name)
		}
	})
	if len(phases) != 2 {
		t.Fatalf("phase spans = %v, want restructure+compute", phases)
	}
	if io := root.SumIO("restructure", "compute"); io.Total() == 0 {
		t.Fatal("executed query's spans carry no page I/O")
	}
	// The cached request did no engine work: no phase spans.
	if len(newest.Spans) != 1 || len(newest.Spans[0].Children) != 0 {
		t.Fatalf("cached request spans = %+v, want a bare root", newest.Spans)
	}
	if newest.Replay == "" || !strings.Contains(newest.Replay, "-alg btc") {
		t.Fatalf("replay = %q", newest.Replay)
	}

	// Tracing off: the endpoint stays up but reports disabled.
	_, ts2, _ := newTestServer(t, 100, Options{})
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if code := getJSON(t, ts2.URL+"/debug/traces", &off); code != http.StatusOK {
		t.Fatalf("/debug/traces returned %d", code)
	}
	if off.Enabled {
		t.Fatal("tracing reported enabled on an untraced server")
	}
}
