package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
)

// newDynamicServer serves a generated DAG through a mutable dynamic graph
// service. Manual rebuild mode keeps tests deterministic: nothing swaps
// generations until the test says so.
func newDynamicServer(t *testing.T, nodes int, opts dynamic.Options) (*Server, string, *dynamic.Service) {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	idx, err := index.Build(graph.New(nodes, arcs))
	if err != nil {
		t.Fatal(err)
	}
	if opts.BaseFingerprint == 0 {
		fp, err := db.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		opts.BaseFingerprint = fp
	}
	dyn, err := dynamic.New(nodes, arcs, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{Dynamic: dyn})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		dyn.Close()
	})
	return s, ts.URL, dyn
}

func postArc(t *testing.T, url, body string) (*http.Response, api.ArcResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/arc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar api.ArcResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
	}
	return resp, ar
}

func reachDyn(t *testing.T, url string, src, dst int32) api.ReachResponse {
	t.Helper()
	var rr api.ReachResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/reach?src=%d&dst=%d", url, src, dst), &rr); code != http.StatusOK {
		t.Fatalf("reach %d->%d: status %d", src, dst, code)
	}
	return rr
}

func TestArcEndpointValidation(t *testing.T) {
	_, url, _ := newDynamicServer(t, 50, dynamic.Options{Manual: true})
	for _, body := range []string{
		``,
		`{`,
		`{"ops":[]}`,
		`{"ops":[{"op":"upsert","from":1,"to":2}]}`,
		`{"ops":[{"op":"insert","from":0,"to":2}]}`,
		`{"ops":[{"op":"insert","from":1,"to":51}]}`,
		`{"ops":[{"op":"insert","from":1,"to":2}]}trailing`,
		`{"bogus":1,"ops":[{"op":"insert","from":1,"to":2}]}`,
	} {
		resp, _ := postArc(t, url, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestArcInsertThenReachReadYourWrites(t *testing.T) {
	_, url, _ := newDynamicServer(t, 50, dynamic.Options{Manual: true})

	// A brand-new arc 1->50 must be visible to the very next reach.
	before := reachDyn(t, url, 1, 50)
	resp, ar := postArc(t, url, `{"ops":[{"op":"insert","from":1,"to":50}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arc status %d", resp.StatusCode)
	}
	if ar.Seq != 1 || ar.Applied != 1 || ar.Rebuilding {
		t.Fatalf("arc response %+v", ar)
	}
	after := reachDyn(t, url, 1, 50)
	if !after.Reachable || !after.IndexHit {
		t.Fatalf("after insert: %+v (before: %+v)", after, before)
	}
	if after.Seq != 1 {
		t.Fatalf("reach seq %d, want 1", after.Seq)
	}

	// Read-your-writes: asking for a sequence this replica has not applied
	// yet is a retryable 503, not a silently stale answer.
	var errBody map[string]any
	code := getJSON(t, url+"/v1/reach?src=1&dst=50&seq=99", &errBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("future seq: status %d, want 503", code)
	}
}

func TestArcCycleInsertMergesAndKeepsIndexHits(t *testing.T) {
	_, url, dyn := newDynamicServer(t, 50, dynamic.Options{Manual: true})

	// Find a pair u->v reachable through the DAG, then insert v->u to
	// create a cycle. The index must merge the components in place — no
	// stale flag, and subsequent reads stay on the index fast path.
	var u, v int32
	for u = 1; u <= 40 && v == 0; u++ {
		for w := u + 1; w <= 50; w++ {
			if dyn.Index().Reach(u, w) {
				v = w
				break
			}
		}
	}
	u--
	if v == 0 {
		t.Fatal("no reachable pair in generated DAG")
	}
	resp, ar := postArc(t, url, fmt.Sprintf(`{"ops":[{"op":"insert","from":%d,"to":%d}]}`, v, u))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arc status %d", resp.StatusCode)
	}
	if ar.Merged < 1 {
		t.Fatalf("cycle insert merged %d components, want >= 1", ar.Merged)
	}
	if ar.Rebuilding {
		t.Fatal("cycle insert marked the service dirty")
	}
	// Both directions now hold, answered by the index.
	for _, pair := range [][2]int32{{u, v}, {v, u}, {u, u}} {
		rr := reachDyn(t, url, pair[0], pair[1])
		if !rr.Reachable || !rr.IndexHit {
			t.Fatalf("post-merge reach %d->%d: %+v", pair[0], pair[1], rr)
		}
	}
}

func TestArcShrinkingDeleteServesOverlayThenRebuilds(t *testing.T) {
	s, url, dyn := newDynamicServer(t, 50, dynamic.Options{Manual: true})

	// Find a non-redundant arc: deleting it shrinks the closure, so the
	// service goes dirty and answers from the overlay until rebuilt.
	var ar api.ArcResponse
	found := false
	for _, a := range dyn.Arcs() {
		resp, r := postArc(t, url, fmt.Sprintf(`{"ops":[{"op":"delete","from":%d,"to":%d}]}`, a.From, a.To))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete status %d", resp.StatusCode)
		}
		if r.Rebuilding {
			ar, found = r, true
			break
		}
	}
	if !found {
		t.Skip("every arc in the generated graph is closure-redundant")
	}
	if ar.Pending < 1 {
		t.Fatalf("dirty service reports %d pending batches", ar.Pending)
	}
	// Overlay answers carry overlay:true and no index hit.
	rr := reachDyn(t, url, 1, 40)
	if rr.IndexHit || !rr.Overlay {
		t.Fatalf("dirty reach not from overlay: %+v", rr)
	}
	// Healthz reports the rebuild in flight and /metrics flags the index
	// stale.
	var hz map[string]any
	if code := getJSON(t, url+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	dynBlock, ok := hz["dynamic"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing dynamic block: %v", hz)
	}
	if dynBlock["rebuilding"] != true {
		t.Fatalf("healthz dynamic block %v, want rebuilding true", dynBlock)
	}
	if got := promText(s); !strings.Contains(got, "tc_index_stale 1") {
		t.Fatalf("metrics missing tc_index_stale 1:\n%s", got)
	}

	if err := dyn.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	rr = reachDyn(t, url, 1, 40)
	if !rr.IndexHit {
		t.Fatalf("post-rebuild reach not from index: %+v", rr)
	}
	if code := getJSON(t, url+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	dynBlock = hz["dynamic"].(map[string]any)
	if dynBlock["rebuilding"] != false || dynBlock["generation"].(float64) < 1 {
		t.Fatalf("post-rebuild dynamic block %v", dynBlock)
	}
}

func TestArcBacklogReturns429(t *testing.T) {
	_, url, _ := newDynamicServer(t, 50, dynamic.Options{Manual: true, MaxPending: 1})

	// Dirty the service, then exceed the one-batch backlog allowance.
	dirtied := false
	for f := int32(1); f <= 50 && !dirtied; f++ {
		resp, r := postArc(t, url, fmt.Sprintf(`{"ops":[{"op":"delete","from":%d,"to":%d}]}`, f, f%50+1))
		if resp.StatusCode == http.StatusBadRequest {
			continue
		}
		if resp.StatusCode == http.StatusOK && r.Rebuilding {
			dirtied = true
		}
	}
	if !dirtied {
		t.Skip("could not dirty the service with single deletes")
	}
	resp, _ := postArc(t, url, `{"ops":[{"op":"insert","from":1,"to":2}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlogged write: status %d, want 429", resp.StatusCode)
	}
}

func TestArcDifferentialAgainstOracle(t *testing.T) {
	const nodes = 40
	_, url, dyn := newDynamicServer(t, nodes, dynamic.Options{Manual: true})

	// Mirror of the service's graph, mutated in lockstep; fresh BFS over it
	// is the truth for every probe.
	adj := make(map[int32]map[int32]bool)
	for _, a := range dyn.Arcs() {
		if adj[a.From] == nil {
			adj[a.From] = map[int32]bool{}
		}
		adj[a.From][a.To] = true
	}
	oracle := func(src, dst int32) bool {
		seen := make([]bool, nodes+1)
		queue := []int32{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := range adj[u] {
				if v == dst {
					return true
				}
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		return false
	}

	rng := uint64(12345)
	next := func(n int32) int32 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int32(rng>>33)%n + 1
	}
	for step := 0; step < 40; step++ {
		f, to := next(nodes), next(nodes)
		op := "insert"
		if step%3 == 2 {
			op = "delete"
		}
		resp, _ := postArc(t, url, fmt.Sprintf(`{"ops":[{"op":%q,"from":%d,"to":%d}]}`, op, f, to))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d", step, resp.StatusCode)
		}
		if op == "insert" {
			if adj[f] == nil {
				adj[f] = map[int32]bool{}
			}
			adj[f][to] = true
		} else if adj[f] != nil {
			delete(adj[f], to)
		}
		// Probe a band of pairs after every batch, mid-rebuild included.
		for p := 0; p < 8; p++ {
			src, dst := next(nodes), next(nodes)
			rr := reachDyn(t, url, src, dst)
			if rr.Reachable != oracle(src, dst) {
				t.Fatalf("step %d: reach(%d,%d)=%t, oracle says %t (overlay=%t)",
					step, src, dst, rr.Reachable, oracle(src, dst), rr.Overlay)
			}
		}
		if step%10 == 9 {
			if err := dyn.RebuildNow(); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 8; p++ {
				src, dst := next(nodes), next(nodes)
				rr := reachDyn(t, url, src, dst)
				if rr.Reachable != oracle(src, dst) {
					t.Fatalf("step %d post-rebuild: reach(%d,%d)=%t, oracle says %t",
						step, src, dst, rr.Reachable, oracle(src, dst))
				}
			}
		}
	}
}

func TestArcMetricsAndBodyLimit(t *testing.T) {
	s, url, _ := newDynamicServer(t, 50, dynamic.Options{Manual: true})

	if resp, _ := postArc(t, url, `{"ops":[{"op":"insert","from":1,"to":50}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("arc status %d", resp.StatusCode)
	}
	reachDyn(t, url, 1, 50)

	got := promText(s)
	for _, want := range []string{
		`tc_requests_total{endpoint="arc"} 1`,
		"tc_mutations_total 1",
		"tc_index_generation 0",
		"tc_mutation_seq 1",
		"tc_overlay_reads_total 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// An over-sized body is rejected up front, not half-parsed.
	huge := bytes.Repeat([]byte("x"), api.MaxArcBody+1)
	resp, err := http.Post(url+"/v1/arc", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
}
