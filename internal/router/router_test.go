package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/obsv"
	"tcstudy/internal/server"
)

// newReplicaServer spins one real tcserve stack over a generated graph.
func newReplicaServer(t *testing.T, nodes int, seed int64) *httptest.Server {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	s := server.New(db, server.Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// newFleetRouter builds a router over the given replica URLs with health
// driven manually (no background loop) and runs one enrollment sweep.
func newFleetRouter(t *testing.T, opts Options, urls ...string) (*Router, *httptest.Server) {
	t.Helper()
	opts.Replicas = urls
	opts.HealthInterval = -1 // tests call CheckNow explicitly
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func postRouterQuery(t *testing.T, url string, body any) (*http.Response, api.QueryResponse) {
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

func routerHealthz(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

// replicaStates summarizes the router healthz replica list as url->state.
func replicaStates(h map[string]any) map[string]string {
	out := map[string]string{}
	reps, _ := h["replicas"].([]any)
	for _, r := range reps {
		m := r.(map[string]any)
		out[m["url"].(string)] = m["state"].(string)
	}
	return out
}

func TestRouterScatterGather(t *testing.T) {
	const nodes, seed = 300, int64(7)
	a := newReplicaServer(t, nodes, seed)
	b := newReplicaServer(t, nodes, seed)
	c := newReplicaServer(t, nodes, seed)
	single := newReplicaServer(t, nodes, seed)
	rt, ts := newFleetRouter(t, Options{}, a.URL, b.URL, c.URL)

	if _, h := routerHealthz(t, ts.URL); h["healthy_replicas"].(float64) != 3 {
		t.Fatalf("healthz: %v", h)
	}

	sources := []int32{3, 41, 97, 150, 222, 288}
	body := map[string]any{"algorithm": "srch", "sources": sources, "include_successors": true}
	resp, got := postRouterQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router query status %d", resp.StatusCode)
	}
	if got.Shards < 2 {
		t.Fatalf("6 sources over 3 replicas scattered to %d shard(s); want >= 2", got.Shards)
	}
	if got.Cached {
		t.Fatal("first query reported cached")
	}

	// The gathered answer must equal a single server's answer for the
	// same query: sharding may never change what is reachable.
	wresp, err := http.Post(single.URL+"/v1/query", "application/json",
		bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var want api.QueryResponse
	if err := json.NewDecoder(wresp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(got.SuccessorCounts) != len(want.SuccessorCounts) {
		t.Fatalf("successor count maps differ: %d vs %d entries", len(got.SuccessorCounts), len(want.SuccessorCounts))
	}
	for node, n := range want.SuccessorCounts {
		if got.SuccessorCounts[node] != n {
			t.Fatalf("node %d: router says %d successors, single server %d", node, got.SuccessorCounts[node], n)
		}
	}
	for node, succ := range want.Successors {
		if !equalInt32(got.Successors[node], succ) {
			t.Fatalf("node %d successor set differs", node)
		}
	}
	// Distinct tuples are partition-additive for disjoint source sets, so
	// the merged record's total must match the single run.
	if got.Metrics.DistinctTuples != want.Metrics.DistinctTuples {
		t.Fatalf("merged distinct_tuples %d, single server %d", got.Metrics.DistinctTuples, want.Metrics.DistinctTuples)
	}

	// A repeat of the same query hits every shard's result cache.
	if _, again := postRouterQuery(t, ts.URL, body); !again.Cached {
		t.Fatal("repeat query not served from the shard caches")
	}
	if rt.Metrics().Queries.Load() != 2 {
		t.Fatalf("query counter %d, want 2", rt.Metrics().Queries.Load())
	}
}

func TestRouterReachRoutesBySource(t *testing.T) {
	const nodes, seed = 200, int64(7)
	a := newReplicaServer(t, nodes, seed)
	b := newReplicaServer(t, nodes, seed)
	single := newReplicaServer(t, nodes, seed)
	_, ts := newFleetRouter(t, Options{}, a.URL, b.URL)

	for src := int32(1); src <= 40; src++ {
		dst := (src % int32(nodes)) + 1
		got := getReach(t, ts.URL, src, dst)
		want := getReach(t, single.URL, src, dst)
		if got != want {
			t.Fatalf("reach(%d,%d): router %v, single server %v", src, dst, got, want)
		}
	}
}

func getReach(t *testing.T, base string, src, dst int32) bool {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/reach?src=%d&dst=%d", base, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reach status %d", resp.StatusCode)
	}
	var r struct {
		Reachable bool `json:"reachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return r.Reachable
}

func TestRouterFingerprintMismatchRefusedEnrollment(t *testing.T) {
	good := newReplicaServer(t, 200, 7)
	wrong := newReplicaServer(t, 200, 8) // same size, different graph
	rt, ts := newFleetRouter(t, Options{}, good.URL, wrong.URL)

	_, h := routerHealthz(t, ts.URL)
	states := replicaStates(h)
	if states[good.URL] != "healthy" || states[wrong.URL] != "mismatched" {
		t.Fatalf("states %v, want good=healthy wrong=mismatched", states)
	}
	if h["healthy_replicas"].(float64) != 1 {
		t.Fatalf("healthy_replicas %v", h["healthy_replicas"])
	}
	if rt.Metrics().Mismatched.Load() != 1 {
		t.Fatalf("mismatched counter %d", rt.Metrics().Mismatched.Load())
	}
	// Queries still work, served entirely by the matching replica.
	resp, qr := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1, 50, 120}})
	if resp.StatusCode != http.StatusOK || qr.Shards != 1 {
		t.Fatalf("status %d shards %d, want 200/1", resp.StatusCode, qr.Shards)
	}
	// Repeated sweeps must not re-count the same mismatch.
	rt.CheckNow(context.Background())
	if rt.Metrics().Mismatched.Load() != 1 {
		t.Fatalf("mismatch re-counted: %d", rt.Metrics().Mismatched.Load())
	}
}

// flakyProxy fronts a replica and fails the first n /v1/query requests
// with 503, then forwards everything.
type flakyProxy struct {
	backend *httptest.Server
	fails   atomic.Int64
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/query" && f.fails.Add(-1) >= 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"injected transient fault","transient":true}`)
		return
	}
	var resp *http.Response
	var err error
	if r.Method == http.MethodPost {
		resp, err = http.Post(f.backend.URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
	} else {
		resp, err = http.Get(f.backend.URL + r.URL.Path + "?" + r.URL.RawQuery)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	w.Write(buf.Bytes())
}

func TestRouterRetriesTransientShardFailure(t *testing.T) {
	backend := newReplicaServer(t, 200, 7)
	flaky := &flakyProxy{backend: backend}
	flaky.fails.Store(2)
	proxy := httptest.NewServer(flaky)
	t.Cleanup(proxy.Close)

	rt, ts := newFleetRouter(t, Options{Retries: 3, Backoff: time.Millisecond}, proxy.URL)
	resp, qr := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{5, 9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query through flaky replica: status %d", resp.StatusCode)
	}
	if qr.Retries != 2 {
		t.Fatalf("response records %d retries, want 2", qr.Retries)
	}
	if rt.Metrics().Retries.Load() != 2 {
		t.Fatalf("retry counter %d, want 2", rt.Metrics().Retries.Load())
	}
}

func TestRouterRetriesExhaustedPassThrough503(t *testing.T) {
	backend := newReplicaServer(t, 200, 7)
	flaky := &flakyProxy{backend: backend}
	flaky.fails.Store(1 << 30) // fails forever
	proxy := httptest.NewServer(flaky)
	t.Cleanup(proxy.Close)

	rt, ts := newFleetRouter(t, Options{Retries: 1, Backoff: time.Millisecond}, proxy.URL)
	resp, _ := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{5}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the replica's 503 passed through", resp.StatusCode)
	}
	if rt.Metrics().Errors.Load() != 1 {
		t.Fatalf("error counter %d", rt.Metrics().Errors.Load())
	}
}

func TestRouterValidationErrorPassThrough(t *testing.T) {
	a := newReplicaServer(t, 200, 7)
	_, ts := newFleetRouter(t, Options{}, a.URL)
	resp, _ := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "nope", "sources": []int32{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm through router: status %d, want 400", resp.StatusCode)
	}
}

func TestRouterHealthMarksReplicaOutAndBack(t *testing.T) {
	stable := newReplicaServer(t, 200, 7)
	wobbly := newReplicaServer(t, 200, 7)
	var broken atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "down for maintenance", http.StatusInternalServerError)
			return
		}
		resp, err := http.Get(wobbly.URL + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	t.Cleanup(gate.Close)

	rt, ts := newFleetRouter(t, Options{FailThreshold: 2, RecoverThreshold: 2}, stable.URL, gate.URL)
	ctx := context.Background()
	if _, h := routerHealthz(t, ts.URL); h["healthy_replicas"].(float64) != 2 {
		t.Fatalf("enrollment: %v", h)
	}

	// Fail the replica: one bad sweep is not enough, FailThreshold is 2.
	broken.Store(true)
	rt.CheckNow(ctx)
	if _, h := routerHealthz(t, ts.URL); h["healthy_replicas"].(float64) != 2 {
		t.Fatal("replica marked out after a single failure")
	}
	rt.CheckNow(ctx)
	_, h := routerHealthz(t, ts.URL)
	if h["healthy_replicas"].(float64) != 1 || replicaStates(h)[gate.URL] != "down" {
		t.Fatalf("replica not marked out after %d failures: %v", 2, h)
	}
	if rt.Metrics().Excluded.Load() != 1 {
		t.Fatalf("excluded counter %d", rt.Metrics().Excluded.Load())
	}
	// Queries keep flowing to the survivor.
	if resp, _ := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1, 99}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query with one replica out: status %d", resp.StatusCode)
	}

	// Recovery: RecoverThreshold consecutive clean sweeps re-enroll it.
	broken.Store(false)
	rt.CheckNow(ctx)
	if _, h := routerHealthz(t, ts.URL); h["healthy_replicas"].(float64) != 1 {
		t.Fatal("replica re-enrolled after a single success")
	}
	rt.CheckNow(ctx)
	if _, h := routerHealthz(t, ts.URL); h["healthy_replicas"].(float64) != 2 {
		t.Fatalf("replica not re-enrolled: %v", h)
	}
}

func TestRouterNoHealthyReplicas(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	rt, ts := newFleetRouter(t, Options{}, dead.URL)
	resp, _ := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 with no healthy replicas", resp.StatusCode)
	}
	if rt.Metrics().Unavailable.Load() != 1 {
		t.Fatalf("unavailable counter %d", rt.Metrics().Unavailable.Load())
	}
	if code, _ := routerHealthz(t, ts.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("router healthz %d with empty ring, want 503", code)
	}
}

// slowProxy delays /v1/query and /v1/reach responses; healthz stays fast
// so the replica remains enrolled.
func slowProxy(t *testing.T, backend *httptest.Server, delay time.Duration) *httptest.Server {
	t.Helper()
	p := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" || r.URL.Path == "/v1/reach" {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(delay):
			}
		}
		var resp *http.Response
		var err error
		if r.Method == http.MethodPost {
			resp, err = http.Post(backend.URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		} else {
			resp, err = http.Get(backend.URL + r.URL.Path + "?" + r.URL.RawQuery)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	t.Cleanup(p.Close)
	return p
}

func TestRouterHedgesSlowShard(t *testing.T) {
	const nodes, seed = 200, int64(7)
	fast := newReplicaServer(t, nodes, seed)
	slow := slowProxy(t, newReplicaServer(t, nodes, seed), 3*time.Second)

	rt, ts := newFleetRouter(t, Options{HedgeAfter: 30 * time.Millisecond}, fast.URL, slow.URL)

	// Find a source the slow replica owns, so the primary request stalls
	// and the hedge must win.
	rg := rt.snapshot()
	var src int32
	for s := int32(1); s <= int32(nodes); s++ {
		if rg.owner(s).url == slow.URL {
			src = s
			break
		}
	}
	if src == 0 {
		t.Fatal("slow replica owns no sources")
	}

	start := time.Now()
	resp, qr := postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{src}})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged query status %d", resp.StatusCode)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("hedge did not rescue the query: took %v", elapsed)
	}
	if qr.Hedges < 1 {
		t.Fatalf("response records %d hedges, want >= 1", qr.Hedges)
	}
	if rt.Metrics().Hedges.Load() < 1 || rt.Metrics().HedgeWins.Load() < 1 {
		t.Fatalf("hedge counters: launched=%d won=%d", rt.Metrics().Hedges.Load(), rt.Metrics().HedgeWins.Load())
	}
}

// TestRouterPartialFailureMatrix is the scatter-gather stress from the
// issue: a fleet where one replica always 503s its queries, one is so
// slow it would time out, and one serves the wrong dataset. The router
// must exclude the mismatch at enrollment, absorb the 503s with retries,
// rescue the slow shard with a hedge, and still answer correctly.
func TestRouterPartialFailureMatrix(t *testing.T) {
	const nodes, seed = 250, int64(7)
	healthy := newReplicaServer(t, nodes, seed)
	faulty := &flakyProxy{backend: newReplicaServer(t, nodes, seed)}
	faulty.fails.Store(1 << 30) // every query 503s; healthz stays clean
	faultyFront := httptest.NewServer(faulty)
	t.Cleanup(faultyFront.Close)
	slow := slowProxy(t, newReplicaServer(t, nodes, seed), 3*time.Second)
	mismatched := newReplicaServer(t, nodes, seed+1)

	rt, ts := newFleetRouter(t, Options{
		Retries:    2,
		Backoff:    time.Millisecond,
		HedgeAfter: 30 * time.Millisecond,
	}, healthy.URL, faultyFront.URL, slow.URL, mismatched.URL)

	_, h := routerHealthz(t, ts.URL)
	states := replicaStates(h)
	if states[mismatched.URL] != "mismatched" {
		t.Fatalf("mismatched replica enrolled: %v", states)
	}
	if h["healthy_replicas"].(float64) != 3 {
		t.Fatalf("healthy_replicas %v, want 3 (healthz of faulty/slow replicas is clean)", h["healthy_replicas"])
	}

	// Sources spread across all three enrolled replicas.
	rg := rt.snapshot()
	var sources []int32
	owners := map[string]bool{}
	for s := int32(1); s <= int32(nodes) && len(sources) < 9; s++ {
		u := rg.owner(s).url
		if !owners[u] || len(sources) < 6 {
			owners[u] = true
			sources = append(sources, s)
		}
	}
	if len(owners) != 3 {
		t.Fatalf("sources cover %d replicas, want 3", len(owners))
	}

	single := newReplicaServer(t, nodes, seed)
	body := map[string]any{"algorithm": "srch", "sources": sources}
	start := time.Now()
	resp, got := postRouterQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix query status %d", resp.StatusCode)
	}
	if time.Since(start) >= 3*time.Second {
		t.Fatal("matrix query waited out the slow replica; hedge failed")
	}
	if got.Retries < 1 {
		t.Fatalf("no retries recorded against the 503 replica (got %d)", got.Retries)
	}
	if got.Hedges < 1 {
		t.Fatalf("no hedges recorded against the slow replica (got %d)", got.Hedges)
	}

	wresp, err := http.Post(single.URL+"/v1/query", "application/json", bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var want api.QueryResponse
	if err := json.NewDecoder(wresp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	for node, n := range want.SuccessorCounts {
		if got.SuccessorCounts[node] != n {
			t.Fatalf("node %d: %d successors via router, %d via single server", node, got.SuccessorCounts[node], n)
		}
	}
}

func TestRouterMetricsExposition(t *testing.T) {
	a := newReplicaServer(t, 200, 7)
	_, ts := newFleetRouter(t, Options{}, a.URL)
	postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{1, 2, 3}})
	getReach(t, ts.URL, 1, 2)

	scrape := func() map[string]*obsv.Family {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		fams, err := obsv.ParseExposition(buf.String())
		if err != nil {
			t.Fatalf("exposition invalid: %v", err)
		}
		return fams
	}
	fams := scrape()
	for _, name := range []string{
		"tcr_requests_total", "tcr_shard_requests_total", "tcr_shard_failures_total",
		"tcr_retries_total", "tcr_hedges_total", "tcr_hedge_wins_total",
		"tcr_replicas_excluded_total", "tcr_replicas_mismatched_total",
		"tcr_replica_healthy", "tcr_healthy_replicas",
		"tcr_request_duration_seconds", "tcr_scatter_fanout_shards",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if v, ok := obsv.CounterValue(fams, "tcr_requests_total"); !ok || v < 2 {
		t.Fatalf("tcr_requests_total = %v", v)
	}
	before, _ := obsv.CounterValue(fams, "tcr_shard_requests_total")
	postRouterQuery(t, ts.URL, map[string]any{"algorithm": "srch", "sources": []int32{9}})
	after, _ := obsv.CounterValue(scrape(), "tcr_shard_requests_total")
	if after <= before {
		t.Fatalf("shard request counter not monotonic: %v -> %v", before, after)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
