package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/pagedisk"
)

// newTestServer serves a generated DAG through httptest.
func newTestServer(t *testing.T, nodes int, opts Options) (*Server, *httptest.Server, *core.Database) {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	s := New(db, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, db
}

func postQuery(t *testing.T, url string, body any) (*http.Response, api.QueryResponse) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr api.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, qr
}

// promText renders the server's /metrics text exposition.
func promText(s *Server) string {
	var b strings.Builder
	_ = s.met.WritePrometheus(&b)
	return b.String()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestQueryEndpointMatchesEngine(t *testing.T) {
	_, ts, db := newTestServer(t, 400, Options{})
	sources := []int32{3, 57, 200}
	want, err := core.Run(db, core.BJ, core.Query{Sources: sources}, core.Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}

	resp, qr := postQuery(t, ts.URL, map[string]any{"algorithm": "bj", "sources": sources})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if qr.Cached {
		t.Fatal("first query reported cached")
	}
	if qr.Metrics.TotalIO != want.Metrics.TotalIO() {
		t.Fatalf("served I/O %d != engine %d", qr.Metrics.TotalIO, want.Metrics.TotalIO())
	}
	if qr.Metrics.DistinctTuples != want.Metrics.DistinctTuples {
		t.Fatalf("served tuples %d != engine %d", qr.Metrics.DistinctTuples, want.Metrics.DistinctTuples)
	}
	for _, src := range sources {
		if qr.SuccessorCounts[src] != len(want.Successors[src]) {
			t.Fatalf("successor count of %d: served %d != engine %d",
				src, qr.SuccessorCounts[src], len(want.Successors[src]))
		}
	}
}

func TestRepeatedQueryServedFromCacheWithoutIO(t *testing.T) {
	s, ts, _ := newTestServer(t, 400, Options{})
	body := map[string]any{"algorithm": "srch", "sources": []int32{5, 9}}

	resp, first := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("first: status %d cached %t", resp.StatusCode, first.Cached)
	}
	pagesAfterMiss := s.Metrics().PagesServed.Load()
	if pagesAfterMiss == 0 {
		t.Fatal("miss served no page I/O")
	}

	resp, second := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || !second.Cached {
		t.Fatalf("second: status %d cached %t", resp.StatusCode, second.Cached)
	}
	if second.Metrics.TotalIO != first.Metrics.TotalIO {
		t.Fatal("cached reply altered the metric record")
	}
	if got := s.Metrics().PagesServed.Load(); got != pagesAfterMiss {
		t.Fatalf("cache hit performed %d new page I/Os", got-pagesAfterMiss)
	}
	if s.Metrics().CacheHits.Load() != 1 || s.Metrics().CacheMisses.Load() != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1",
			s.Metrics().CacheHits.Load(), s.Metrics().CacheMisses.Load())
	}

	// Source order and duplicates canonicalize to the same entry.
	resp, third := postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{9, 5, 9}})
	if resp.StatusCode != http.StatusOK || !third.Cached {
		t.Fatalf("permuted sources missed the cache (status %d cached %t)", resp.StatusCode, third.Cached)
	}
}

// TestRepeatedSourcesAnswerLikeTheirSet pins the duplicate-source contract
// across the cache: the engine runs [5,5] as [5], so whichever spelling
// fills the cache, the other is served the same counts — not SRCH's
// successors listed twice.
func TestRepeatedSourcesAnswerLikeTheirSet(t *testing.T) {
	_, ts, db := newTestServer(t, 400, Options{})
	want, err := core.Run(db, core.SRCH, core.Query{Sources: []int32{5}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, twice := postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{5, 5}, "include_successors": true})
	if resp.StatusCode != http.StatusOK || twice.Cached {
		t.Fatalf("[5,5]: status %d cached %t", resp.StatusCode, twice.Cached)
	}
	resp, once := postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{5}, "include_successors": true})
	if resp.StatusCode != http.StatusOK || !once.Cached {
		t.Fatalf("[5] after [5,5]: status %d cached %t, want a cache hit", resp.StatusCode, once.Cached)
	}
	for name, got := range map[string]api.QueryResponse{"[5,5]": twice, "[5]": once} {
		if got.SuccessorCounts[5] != len(want.Successors[5]) || len(got.Successors[5]) != len(want.Successors[5]) {
			t.Errorf("%s: node 5 has %d successors (%d listed), engine says %d",
				name, got.SuccessorCounts[5], len(got.Successors[5]), len(want.Successors[5]))
		}
		if len(got.Sources) != 1 || got.Metrics.DistinctTuples != want.Metrics.DistinctTuples {
			t.Errorf("%s: echoed sources %v, %d tuples; want [5], %d", name, got.Sources, got.Metrics.DistinctTuples, want.Metrics.DistinctTuples)
		}
	}
}

func TestReachEndpoint(t *testing.T) {
	// A tiny graph with a known shape: 1->2->3, 4 isolated.
	db := core.NewDatabase(4, []graph.Arc{{From: 1, To: 2}, {From: 2, To: 3}})
	s := New(db, Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	cases := []struct {
		src, dst int32
		want     bool
	}{
		{1, 3, true}, {1, 2, true}, {2, 3, true},
		{3, 1, false}, {4, 1, false}, {1, 1, false}, // acyclic: no self-reach
	}
	for _, c := range cases {
		var rr api.ReachResponse
		if code := getJSON(t, fmt.Sprintf("%s/v1/reach?src=%d&dst=%d", ts.URL, c.src, c.dst), &rr); code != http.StatusOK {
			t.Fatalf("reach %d->%d: status %d", c.src, c.dst, code)
		}
		if rr.Reachable != c.want {
			t.Fatalf("reach %d->%d = %t, want %t", c.src, c.dst, rr.Reachable, c.want)
		}
	}
	// A repeated probe from a warm source is a cache hit with zero I/O.
	var rr api.ReachResponse
	getJSON(t, ts.URL+"/v1/reach?src=1&dst=2", &rr)
	if !rr.Cached || rr.PageIO != 0 {
		t.Fatalf("warm reach: cached=%t io=%d", rr.Cached, rr.PageIO)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, 400, Options{})
	var pr api.PlanResponse
	if code := getJSON(t, ts.URL+"/v1/plan?sources=3&m=20", &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if pr.Profile.Nodes != 400 || pr.Profile.Arcs == 0 {
		t.Fatalf("bad profile %+v", pr.Profile)
	}
	if pr.Sources != 3 || pr.BufferM != 20 {
		t.Fatalf("params not echoed: %+v", pr)
	}
	if len(pr.Estimates) < 5 {
		t.Fatalf("only %d estimates", len(pr.Estimates))
	}
	for i := 1; i < len(pr.Estimates); i++ {
		if pr.Estimates[i].IO < pr.Estimates[i-1].IO {
			t.Fatal("estimates not sorted cheapest-first")
		}
	}
	hasSRCH := false
	for _, e := range pr.Estimates {
		if e.Algorithm == string(core.SRCH) {
			hasSRCH = true
		}
	}
	if !hasSRCH {
		t.Fatal("selective plan omits srch")
	}
}

// TestPlanNamesBitMatrix: the 400-node test graph's condensation fits the
// dense-core kernel threshold, so /v1/plan must surface the condensation
// statistics and a bitmatrix estimate, and executing the strategy must
// label its phase histograms with the new algorithm name.
func TestPlanNamesBitMatrix(t *testing.T) {
	_, ts, _ := newTestServer(t, 400, Options{})
	var pr api.PlanResponse
	if code := getJSON(t, ts.URL+"/v1/plan?sources=0", &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if pr.Profile.CondNodes != 400 || pr.Profile.CondArcs == 0 || pr.Profile.Density <= 0 {
		t.Fatalf("plan profile missing condensation stats: %+v", pr.Profile)
	}
	found := false
	for _, e := range pr.Estimates {
		if e.Algorithm == string(core.BITM) {
			found = true
			if !strings.Contains(e.Why, "kernel") {
				t.Errorf("bitmatrix why = %q", e.Why)
			}
		}
	}
	if !found {
		t.Fatalf("plan omits bitmatrix for a core that fits: %+v", pr.Estimates)
	}

	resp, qr := postQuery(t, ts.URL, map[string]any{"algorithm": "bitmatrix", "sources": []int32{1, 7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bitmatrix query status %d", resp.StatusCode)
	}
	if len(qr.SuccessorCounts) != 2 {
		t.Fatalf("bitmatrix query returned %d result rows", len(qr.SuccessorCounts))
	}
	text, _ := scrape(t, ts.URL)
	for _, phase := range []string{"restructure", "compute"} {
		want := `tc_engine_phase_seconds_count{algorithm="bitmatrix",phase="` + phase + `"}`
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, 100, Options{})
	cases := []struct {
		name string
		body any
	}{
		{"unknown algorithm", map[string]any{"algorithm": "nope"}},
		{"zero source", map[string]any{"algorithm": "srch", "sources": []int32{0}}},
		{"negative source", map[string]any{"algorithm": "srch", "sources": []int32{-3}}},
		{"out of range source", map[string]any{"algorithm": "srch", "sources": []int32{101}}},
		{"tiny buffer", map[string]any{"algorithm": "srch", "sources": []int32{1}, "buffer_pages": 2}},
		{"bad page policy", map[string]any{"algorithm": "srch", "sources": []int32{1}, "page_policy": "zzz"}},
		{"bad list policy", map[string]any{"algorithm": "srch", "sources": []int32{1}, "list_policy": "zzz"}},
	}
	for _, c := range cases {
		if resp, _ := postQuery(t, ts.URL, c.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Bad reach parameters.
	if code := getJSON(t, ts.URL+"/v1/reach?src=x&dst=2", nil); code != http.StatusBadRequest {
		t.Errorf("bad reach src: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/reach?src=1&dst=9999", nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range reach dst: status %d, want 400", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts, db := newTestServer(t, 200, Options{})
	var h struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Arcs   int    `json:"arcs"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || h.Nodes != 200 || h.Arcs != db.NumArcs() {
		t.Fatalf("healthz %+v", h)
	}

	postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1}})
	var snap api.Snapshot
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Queries != 1 || snap.CacheMisses != 1 || snap.PagesServed == 0 {
		t.Fatalf("metrics after one query: %+v", snap)
	}
	if snap.LatencyMS.Count != 1 {
		t.Fatalf("latency window has %d samples, want 1", snap.LatencyMS.Count)
	}
}

func TestConcurrentIdenticalQueriesRunOnce(t *testing.T) {
	s, ts, _ := newTestServer(t, 400, Options{Workers: 4})
	body, _ := json.Marshal(map[string]any{"algorithm": "btc", "sources": []int32{2, 11, 73}})
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if misses := s.Metrics().CacheMisses.Load(); misses != 1 {
		t.Fatalf("identical concurrent queries executed %d times, want 1", misses)
	}
	m := s.Metrics().Snapshot()
	if m.CacheHits+m.Deduplicated != n-1 {
		t.Fatalf("hits=%d dedup=%d over %d requests", m.CacheHits, m.Deduplicated, n)
	}
}

func TestServerCloseRefusesNewQueries(t *testing.T) {
	s, ts, _ := newTestServer(t, 100, Options{})
	postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1}})
	s.Close()
	// Uncached queries are refused once the dispatcher is closed…
	resp, _ := postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{2}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server returned %d, want 503", resp.StatusCode)
	}
	// …but cached results still serve.
	resp, qr := postQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1}})
	if resp.StatusCode != http.StatusOK || !qr.Cached {
		t.Fatalf("cached read after close: status %d cached %t", resp.StatusCode, qr.Cached)
	}
}

// TestFailStatusMapping pins the one place an error becomes a reply: its
// status, the outcome counter it moves (exactly one), the tenant charge for
// a rejection, and the retry hints a transient failure carries.
func TestFailStatusMapping(t *testing.T) {
	s, _, _ := newTestServer(t, 50, Options{})
	m := s.Metrics()
	for _, tc := range []struct {
		name      string
		err       error
		status    int
		counter   *atomic.Int64
		transient bool
	}{
		{"client error", badRequest("no"), http.StatusBadRequest, m.Errors, false},
		{"engine validation", &core.InvalidInputError{Reason: "no"}, http.StatusBadRequest, m.Errors, false},
		{"queue full", ErrSaturated, http.StatusTooManyRequests, m.Rejected, false},
		{"mutation backlog", dynamic.ErrBacklog, http.StatusTooManyRequests, m.Rejected, false},
		{"draining", ErrClosed, http.StatusServiceUnavailable, m.Errors, false},
		{"deadline", fmt.Errorf("queued: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, m.Timeouts, false},
		{"client gone", context.Canceled, http.StatusGatewayTimeout, m.Timeouts, false},
		{"storage fault", fmt.Errorf("read page: %w", pagedisk.ErrIOInjected), http.StatusServiceUnavailable, m.StorageFaults, true},
		{"replica behind", dynamic.ErrFutureSeq, http.StatusServiceUnavailable, m.StorageFaults, true},
		{"anything else", errors.New("boom"), http.StatusInternalServerError, m.Errors, false},
	} {
		all := []*atomic.Int64{m.Errors, m.Rejected, m.Timeouts, m.StorageFaults}
		before := make([]int64, len(all))
		for i, c := range all {
			before[i] = c.Load()
		}
		tenantBefore := s.def.tm.Rejected.Load()
		rec := httptest.NewRecorder()
		s.fail(rec, s.def, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
		}
		for i, c := range all {
			want := int64(0)
			if c == tc.counter {
				want = 1
			}
			if got := c.Load() - before[i]; got != want {
				t.Errorf("%s: outcome counter %d moved by %d, want %d", tc.name, i, got, want)
			}
		}
		wantTenant := int64(0)
		if tc.status == http.StatusTooManyRequests {
			wantTenant = 1
		}
		if got := s.def.tm.Rejected.Load() - tenantBefore; got != wantTenant {
			t.Errorf("%s: tenant rejections moved by %d, want %d", tc.name, got, wantTenant)
		}
		var body api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hinted := rec.Header().Get("Retry-After") != "" && body.Transient && body.Retry && body.RetryAfterMS > 0; hinted != tc.transient {
			t.Errorf("%s: retry hints %t (Retry-After %q, body %+v), want %t", tc.name, hinted, rec.Header().Get("Retry-After"), body, tc.transient)
		}
	}
}
