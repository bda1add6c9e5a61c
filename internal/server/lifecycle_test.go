package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/faultdisk"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
)

// lifecycleServer serves the 300-node test DAG behind one reach backend:
// "engine" (no index), "index" (static index) or "dynamic" (mutable
// service, manual rebuilds, one pending batch allowed). With fault set,
// the engine's first page read fails once.
func lifecycleServer(t *testing.T, backend string, traceBuf int, fault bool) (*Server, string) {
	t.Helper()
	const nodes = 300
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	if fault {
		sched, err := faultdisk.ParseSchedule("read@0")
		if err != nil {
			t.Fatal(err)
		}
		db.SwapStore(faultdisk.Wrap(db.Store(), faultdisk.Options{Schedule: sched}))
	}
	opts := Options{TraceBuffer: traceBuf}
	if backend != "engine" {
		if opts.Index, err = index.Build(graph.New(nodes, arcs)); err != nil {
			t.Fatal(err)
		}
	}
	if backend == "dynamic" {
		opts.Dynamic, err = dynamic.New(nodes, arcs, opts.Index, dynamic.Options{Manual: true, MaxPending: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts.Index = nil
		t.Cleanup(opts.Dynamic.Close)
	}
	s := New(db, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// promSample reads one sample of the server's /metrics exposition.
func promSample(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(promText(s), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s in /metrics", series)
	return 0
}

// tracedCount is the number of entries GET /debug/traces serves.
func tracedCount(t *testing.T, url string) int {
	t.Helper()
	var body struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if code := getJSON(t, url+"/debug/traces", &body); code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", code)
	}
	return len(body.Traces)
}

// TestRequestLifecycle checks the bookkeeping every lifecycle endpoint
// shares, one row per (endpoint, reach backend) and one column per outcome:
// a served request is observed exactly once by the latency histogram,
// counted once globally and once for its tenant, and traced once; a request
// rejected by validation (400) is none of those; a request that fails
// after validation (429/503) is traced with its error but neither counted
// as served nor observed. With tracing off nothing reaches the ring, and
// tc_in_flight always returns to zero.
func TestRequestLifecycle(t *testing.T) {
	const (
		shrink = `{"ops":[{"op":"delete","from":298,"to":299}]}` // closure-shrinking: reads move to the overlay
		insert = `{"ops":[{"op":"insert","from":1,"to":300}]}`
	)
	type request struct{ path, body string } // an empty path: the outcome cannot happen on this row
	rows := []struct {
		name, backend string
		prep          []string // mutation batches applied before the measured request
		endpoint      string
		ok, invalid   request
		failing       request
		failStatus    int
		fault         bool // the failing column needs the scheduled storage fault
	}{
		{name: "query", backend: "engine", endpoint: "query",
			ok:      request{"/v1/query", `{"algorithm":"srch","sources":[3]}`},
			invalid: request{"/v1/query", `{"algorithm":"nope","sources":[3]}`},
			failing: request{"/v1/query", `{"algorithm":"srch","sources":[3]}`}, failStatus: http.StatusServiceUnavailable, fault: true},
		{name: "reach via index", backend: "index", endpoint: "reach",
			ok:      request{path: "/v1/reach?src=3&dst=250"},
			invalid: request{path: "/v1/reach?src=3&dst=999"}}, // an index probe has nothing to wait for: no 429/503
		{name: "reach via dynamic clean", backend: "dynamic", endpoint: "reach",
			ok:      request{path: "/v1/reach?src=1&dst=300"},
			invalid: request{path: "/v1/reach?src=0&dst=1"},
			failing: request{path: "/v1/reach?src=1&dst=300&seq=99"}, failStatus: http.StatusServiceUnavailable},
		{name: "reach via overlay", backend: "dynamic", prep: []string{shrink}, endpoint: "reach",
			ok:      request{path: "/v1/reach?src=298&dst=299"},
			invalid: request{path: "/v1/reach?src=0&dst=1"},
			failing: request{path: "/v1/reach?src=298&dst=299&seq=99"}, failStatus: http.StatusServiceUnavailable},
		{name: "reach via engine", backend: "engine", endpoint: "reach",
			ok:      request{path: "/v1/reach?src=3&dst=250"},
			invalid: request{path: "/v1/reach?src=3&dst=999"},
			failing: request{path: "/v1/reach?src=3&dst=250"}, failStatus: http.StatusServiceUnavailable, fault: true},
		{name: "arc", backend: "dynamic", endpoint: "arc",
			ok:      request{"/v1/arc", insert},
			invalid: request{"/v1/arc", `{"ops":[]}`}},
		{name: "arc over backlog", backend: "dynamic", prep: []string{shrink}, endpoint: "arc",
			failing: request{"/v1/arc", insert}, failStatus: http.StatusTooManyRequests},
	}
	for _, row := range rows {
		for _, col := range []struct {
			outcome string
			req     request
			status  int
			served  float64 // expected move of the request counters and the latency count
			traced  int     // expected trace-ring entries while tracing is on
		}{
			{"200", row.ok, http.StatusOK, 1, 1},
			{"400", row.invalid, http.StatusBadRequest, 0, 0},
			{"fail", row.failing, row.failStatus, 0, 1},
		} {
			if col.req.path == "" {
				continue
			}
			for _, traceBuf := range []int{8, 0} {
				t.Run(fmt.Sprintf("%s/%s/tracebuf=%d", row.name, col.outcome, traceBuf), func(t *testing.T) {
					s, url := lifecycleServer(t, row.backend, traceBuf, row.fault && col.outcome == "fail")
					for _, batch := range row.prep {
						if resp, _ := postArc(t, url, batch); resp.StatusCode != http.StatusOK {
							t.Fatalf("prep batch %s: status %d", batch, resp.StatusCode)
						}
					}
					series := []string{
						fmt.Sprintf(`tc_requests_total{endpoint=%q}`, row.endpoint),
						"tc_request_duration_seconds_count",
					}
					if row.endpoint != "arc" { // /v1/arc has no tenant series
						series = append(series, fmt.Sprintf(`tc_tenant_requests_total{tenant="default",endpoint=%q}`, row.endpoint))
					}
					before := make(map[string]float64)
					for _, name := range series {
						before[name] = promSample(t, s, name)
					}
					tracedBefore := tracedCount(t, url)

					method := http.MethodGet
					if col.req.body != "" {
						method = http.MethodPost
					}
					req, err := http.NewRequest(method, url+col.req.path, strings.NewReader(col.req.body))
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != col.status {
						t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, col.status, body)
					}

					for _, name := range series {
						if got := promSample(t, s, name) - before[name]; got != col.served {
							t.Errorf("%s moved by %g, want %g", name, got, col.served)
						}
					}
					wantTraced := col.traced
					if traceBuf == 0 {
						wantTraced = 0
					}
					if got := tracedCount(t, url) - tracedBefore; got != wantTraced {
						t.Errorf("%d trace-ring entries, want %d", got, wantTraced)
					}
					if got := promSample(t, s, "tc_in_flight"); got != 0 {
						t.Errorf("tc_in_flight = %g after the request, want 0", got)
					}
				})
			}
		}
	}
}
