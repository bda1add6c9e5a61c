// Property and fuzz tests: the index must agree exactly with the engine's
// closure — at build time and after a batch of incremental inserts. The
// fuzz input encoding (pairs of bytes decoded onto a small node range)
// reuses the scheme and seed corpus of internal/graph/fuzz_test.go.
package index_test

import (
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
)

// engineClosure runs the engine's BTC algorithm over the full closure and
// returns the successor sets.
func engineClosure(t testing.TB, n int, arcs []graph.Arc) map[int32][]int32 {
	t.Helper()
	db := core.NewDatabase(n, arcs)
	res, err := core.Run(db, core.BTC, core.Query{}, core.Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	return res.Successors
}

// compareAllPairs checks index.Reach against engine successor sets over
// every (src,dst) pair.
func compareAllPairs(t testing.TB, x *index.Index, succ map[int32][]int32, n int, stage string) {
	t.Helper()
	want := make(map[[2]int32]bool)
	for u, vs := range succ {
		for _, v := range vs {
			want[[2]int32{u, v}] = true
		}
	}
	for u := int32(1); u <= int32(n); u++ {
		for v := int32(1); v <= int32(n); v++ {
			if got := x.Reach(u, v); got != want[[2]int32{u, v}] {
				t.Fatalf("%s: Reach(%d,%d) = %t, engine says %t", stage, u, v, got, !got)
			}
		}
	}
}

// forwardArcs decodes fuzz bytes into a DAG arc list: each byte pair is an
// arc with endpoints folded into 1..n and oriented low->high, which keeps
// the graph acyclic so the engine (and post-insert rebuilds) accept it.
func forwardArcs(raw []byte, n int) []graph.Arc {
	var arcs []graph.Arc
	for i := 0; i+1 < len(raw); i += 2 {
		a := int32(raw[i]%byte(n)) + 1
		b := int32(raw[i+1]%byte(n)) + 1
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		arcs = append(arcs, graph.Arc{From: a, To: b})
	}
	return arcs
}

// TestIndexMatchesBTC is the issue's property test: on random DAGs the
// index must answer exactly like the engine's BTC closure, including after
// a batch of InsertArc calls.
func TestIndexMatchesBTC(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs per case")
	}
	for _, tc := range []struct {
		nodes, degree, locality int
		seed                    int64
		inserts                 int
	}{
		{30, 3, 10, 1, 8},
		{60, 2, 60, 2, 12},
		{40, 5, 5, 3, 6},
		{25, 4, 25, 4, 25},
	} {
		arcs, err := graphgen.Generate(graphgen.Params{
			Nodes: tc.nodes, OutDegree: tc.degree, Locality: tc.locality, Seed: tc.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(tc.nodes, arcs)
		x, err := index.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		compareAllPairs(t, x, engineClosure(t, tc.nodes, arcs), tc.nodes, "build")

		// Batch of forward (acyclicity-preserving) inserts: every one must
		// be folded in place, and the result must match a from-scratch
		// engine run over the grown arc list.
		grown := append([]graph.Arc(nil), g.Arcs()...)
		for i := 0; i < tc.inserts; i++ {
			u := int32((i*7+int(tc.seed))%(tc.nodes-1)) + 1
			v := u + 1 + int32((i*3)%(tc.nodes-int(u)))
			if merged, err := x.InsertArcMerge(u, v); err != nil || merged != 0 {
				t.Fatalf("InsertArcMerge(%d,%d): merged %d components, err %v", u, v, merged, err)
			}
			grown = append(grown, graph.Arc{From: u, To: v})
		}
		compareAllPairs(t, x, engineClosure(t, tc.nodes, grown), tc.nodes, "post-insert")
	}
}

// FuzzIndexReach cross-checks the index against the graph package's
// reference closure on fuzz-shaped DAGs, splitting the input into a build
// half and an insert half so incremental maintenance is fuzzed too.
func FuzzIndexReach(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1})
	f.Add([]byte{1, 1, 2, 2})
	f.Add([]byte{5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 1, 3, 3, 5})
	f.Add([]byte{0, 9, 3, 4, 4, 9, 0, 1, 7, 2, 2, 8})

	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 12
		half := len(raw) / 2
		base := forwardArcs(raw[:half], n)
		extra := forwardArcs(raw[half:], n)

		g := graph.New(n, base)
		x, err := index.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		arcs := g.Arcs()
		for _, a := range extra {
			if merged, err := x.InsertArcMerge(a.From, a.To); err != nil || merged != 0 {
				t.Fatalf("InsertArcMerge(%d,%d): merged %d components, err %v", a.From, a.To, merged, err)
			}
			arcs = append(arcs, a)
		}
		succ, err := graph.New(n, arcs).Closure()
		if err != nil {
			t.Fatal(err)
		}
		for u := int32(1); u <= n; u++ {
			for v := int32(1); v <= n; v++ {
				if got, want := x.Reach(u, v), succ[u].Has(v); got != want {
					t.Fatalf("Reach(%d,%d) = %t, reference closure says %t", u, v, got, want)
				}
			}
			got := x.Successors(u)
			if len(got) != succ[u].Count() {
				t.Fatalf("Successors(%d) has %d nodes, reference %d", u, len(got), succ[u].Count())
			}
		}
	})
}

// FuzzIndexReachCyclic builds over arbitrary (cyclic) graphs, self-arcs
// included, and checks against the condensation-expanded reference closure.
func FuzzIndexReachCyclic(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1})
	f.Add([]byte{5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 1, 3, 3, 5})

	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 10
		var arcs []graph.Arc
		for i := 0; i+1 < len(raw); i += 2 {
			from := int32(raw[i]%n) + 1
			to := int32(raw[i+1]%n) + 1
			arcs = append(arcs, graph.Arc{From: from, To: to})
		}
		g := graph.New(n, arcs)
		x, err := index.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		cond := g.Condense()
		dagSucc, err := cond.DAG.Closure()
		if err != nil {
			t.Fatal(err)
		}
		full := cond.ExpandClosure(dagSucc)
		for u := int32(1); u <= n; u++ {
			want := make(map[int32]bool, len(full[u]))
			for _, v := range full[u] {
				want[v] = true
			}
			for v := int32(1); v <= n; v++ {
				if got := x.Reach(u, v); got != want[v] {
					t.Fatalf("Reach(%d,%d) = %t, reference says %t", u, v, got, want[v])
				}
			}
		}
	})
}
