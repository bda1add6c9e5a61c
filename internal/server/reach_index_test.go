package server

import (
	"fmt"
	"net/http"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
)

// newIndexedServer builds a server whose /v1/reach is backed by a
// reachability index over the same generated graph.
func newIndexedServer(t *testing.T, nodes int) (*Server, string, *index.Index) {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(graph.New(nodes, arcs))
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, nodes, Options{Index: idx})
	_ = s
	return s, ts.URL, idx
}

func TestReachIndexFastPath(t *testing.T) {
	const nodes = 200
	s, url, _ := newIndexedServer(t, nodes)

	// Engine-computed truth for a handful of sources.
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	probes := 0
	for _, src := range []int32{1, 17, 99, 160} {
		res, err := core.Run(db, core.SRCH, core.Query{Sources: []int32{src}}, core.Config{BufferPages: 10})
		if err != nil {
			t.Fatal(err)
		}
		reachable := map[int32]bool{}
		for _, v := range res.Successors[src] {
			reachable[v] = true
		}
		for dst := int32(1); dst <= nodes; dst += 13 {
			var rr api.ReachResponse
			if code := getJSON(t, fmt.Sprintf("%s/v1/reach?src=%d&dst=%d", url, src, dst), &rr); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if !rr.IndexHit {
				t.Fatalf("reach %d->%d not served by the index", src, dst)
			}
			if rr.Reachable != reachable[dst] {
				t.Fatalf("index says Reach(%d,%d)=%t, engine says %t", src, dst, rr.Reachable, reachable[dst])
			}
			if rr.PageIO != 0 {
				t.Fatalf("index hit charged %d page I/O", rr.PageIO)
			}
			probes++
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.IndexHits != int64(probes) {
		t.Fatalf("index_hits = %d, want %d", snap.IndexHits, probes)
	}
	if snap.PagesServed != 0 {
		t.Fatalf("index path served %d pages from the engine", snap.PagesServed)
	}
	if snap.Reaches != int64(probes) {
		t.Fatalf("reaches = %d, want %d", snap.Reaches, probes)
	}
}

func TestReachIndexValidation(t *testing.T) {
	_, url, _ := newIndexedServer(t, 50)
	for _, q := range []string{"src=0&dst=1", "src=1&dst=999", "src=x&dst=1"} {
		var rr map[string]any
		if code := getJSON(t, url+"/v1/reach?"+q, &rr); code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, code)
		}
	}
}
