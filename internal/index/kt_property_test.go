// The cross-builder equivalence battery: across 50 generator seeds, the KT
// builder must answer Reach and Successors byte-for-byte identically to the
// greedy builder and to the engine's BTC closure — at build time, after a
// batch of InsertArc folds, and after InsertArcMerge collapses a cycle.
// FuzzIndexLoad hardens the loader against arbitrary bytes, with corpora
// seeded from files both builders wrote.
package index_test

import (
	"bytes"
	"math/rand"
	"testing"

	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
)

// sameAnswers asserts two indexes over the same graph agree exactly:
// identical Reach on every pair and identical Successors slices (same
// order, same contents) for every source.
func sameAnswers(t *testing.T, a, b *index.Index, n int, stage string) {
	t.Helper()
	for u := int32(1); u <= int32(n); u++ {
		for v := int32(1); v <= int32(n); v++ {
			if ra, rb := a.Reach(u, v), b.Reach(u, v); ra != rb {
				t.Fatalf("%s: Reach(%d,%d): %s says %t, %s says %t", stage, u, v, a.Builder(), ra, b.Builder(), rb)
			}
		}
		sa, sb := a.Successors(u), b.Successors(u)
		if len(sa) != len(sb) {
			t.Fatalf("%s: Successors(%d): %s has %d, %s has %d", stage, u, a.Builder(), len(sa), b.Builder(), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: Successors(%d)[%d]: %d vs %d", stage, u, i, sa[i], sb[i])
			}
		}
	}
}

// referenceReach computes the expected closure via the graph package's
// condensation reference (valid on cyclic graphs, unlike the DAG-only
// engine harness above).
func referenceReach(t *testing.T, n int, arcs []graph.Arc) map[[2]int32]bool {
	t.Helper()
	g := graph.New(n, arcs)
	cond := g.Condense()
	dagSucc, err := cond.DAG.Closure()
	if err != nil {
		t.Fatal(err)
	}
	full := cond.ExpandClosure(dagSucc)
	want := make(map[[2]int32]bool)
	for u := int32(1); u <= int32(n); u++ {
		for _, v := range full[u] {
			want[[2]int32{u, v}] = true
		}
	}
	return want
}

// TestKTFiftySeedEquivalence is the issue's 50-seed property test. Each
// seed runs three stages on a fresh generator graph:
//
//  1. build: greedy vs kt (parallelism alternating 1 and 4 across seeds)
//     vs the engine's BTC closure;
//  2. post-InsertArc: the same forward insert batch applied to both
//     builders, re-checked against a fresh engine run over the grown arcs;
//  3. post-InsertArcMerge: a cycle-closing back arc collapses an SCC in
//     both indexes, checked against the condensation reference closure.
func TestKTFiftySeedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("engine closure per seed")
	}
	for seed := int64(1); seed <= 50; seed++ {
		nodes := 20 + int(seed%4)*8
		params := graphgen.Params{
			Nodes:     nodes,
			OutDegree: 2 + int(seed%3),
			Locality:  5 + int(seed%5)*10,
			Seed:      seed,
		}
		arcs, err := graphgen.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(nodes, arcs)
		xg, err := index.Build(g)
		if err != nil {
			t.Fatalf("seed %d: greedy build: %v", seed, err)
		}
		par := 1 + 3*int(seed%2)
		xk, err := index.BuildKT(g, index.KTOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("seed %d: kt build: %v", seed, err)
		}
		sameAnswers(t, xg, xk, nodes, "build")
		compareAllPairs(t, xk, engineClosure(t, nodes, arcs), nodes, "build-vs-engine")

		// Stage 2 — forward inserts, applied identically to both indexes.
		rng := rand.New(rand.NewSource(seed * 977))
		grown := append([]graph.Arc(nil), g.Arcs()...)
		for i := 0; i < 10; i++ {
			u := int32(rng.Intn(nodes-1) + 1)
			v := u + int32(rng.Intn(nodes-int(u))) + 1
			if _, err := xg.InsertArcMerge(u, v); err != nil {
				t.Fatalf("seed %d: greedy InsertArcMerge(%d,%d): %v", seed, u, v, err)
			}
			if _, err := xk.InsertArcMerge(u, v); err != nil {
				t.Fatalf("seed %d: kt InsertArcMerge(%d,%d): %v", seed, u, v, err)
			}
			grown = append(grown, graph.Arc{From: u, To: v})
		}
		sameAnswers(t, xg, xk, nodes, "post-insert")
		compareAllPairs(t, xk, engineClosure(t, nodes, grown), nodes, "post-insert-vs-engine")

		// Stage 3 — a back arc that closes a cycle over a reachable span,
		// collapsing an SCC in place on both builders.
		u, v := findReachablePair(xk, nodes)
		if u == 0 {
			continue // edgeless seed: nothing to merge
		}
		mg, err := xg.InsertArcMerge(v, u)
		if err != nil {
			t.Fatalf("seed %d: greedy InsertArcMerge(%d,%d): %v", seed, v, u, err)
		}
		mk, err := xk.InsertArcMerge(v, u)
		if err != nil {
			t.Fatalf("seed %d: kt InsertArcMerge(%d,%d): %v", seed, v, u, err)
		}
		if mg != mk {
			t.Fatalf("seed %d: merge collapsed %d components on greedy, %d on kt", seed, mg, mk)
		}
		sameAnswers(t, xg, xk, nodes, "post-merge")
		grown = append(grown, graph.Arc{From: v, To: u})
		want := referenceReach(t, nodes, grown)
		for a := int32(1); a <= int32(nodes); a++ {
			for b := int32(1); b <= int32(nodes); b++ {
				if got := xk.Reach(a, b); got != want[[2]int32{a, b}] {
					t.Fatalf("seed %d: post-merge Reach(%d,%d) = %t, reference says %t", seed, a, b, got, !got)
				}
			}
		}
	}
}

// findReachablePair returns a pair u < v with Reach(u,v) true and u != v,
// or zeros when the graph has no such pair.
func findReachablePair(x *index.Index, n int) (int32, int32) {
	for u := int32(1); u <= int32(n); u++ {
		for v := u + 1; v <= int32(n); v++ {
			if x.Reach(u, v) {
				return u, v
			}
		}
	}
	return 0, 0
}

// FuzzIndexLoad feeds arbitrary bytes to the TCIX loader: it must reject
// or accept without panicking, and anything it accepts must survive a
// Save/Load round trip byte-identically. The corpus seeds include real
// files from both the greedy and the KT builder so mutations explore valid
// structure, not just the header checks.
func FuzzIndexLoad(f *testing.F) {
	for _, seedCase := range []struct {
		nodes, degree, locality int
		seed                    int64
	}{
		{18, 3, 6, 1},
		{30, 2, 30, 2},
	} {
		arcs, err := graphgen.Generate(graphgen.Params{
			Nodes: seedCase.nodes, OutDegree: seedCase.degree,
			Locality: seedCase.locality, Seed: seedCase.seed,
		})
		if err != nil {
			f.Fatal(err)
		}
		g := graph.New(seedCase.nodes, arcs)
		for _, build := range []func() (*index.Index, error){
			func() (*index.Index, error) { return index.Build(g) },
			func() (*index.Index, error) { return index.BuildKT(g, index.KTOptions{Parallelism: 2}) },
		} {
			x, err := build()
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte("TCIX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		x, err := index.Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Whatever the loader accepted must be internally consistent enough
		// to answer queries and to round-trip.
		n := int32(x.N())
		for u := int32(1); u <= n; u++ {
			x.Reach(u, (u%n)+1)
			x.Successors(u)
		}
		var out bytes.Buffer
		if err := x.Save(&out); err != nil {
			t.Fatalf("re-save of accepted index failed: %v", err)
		}
		y, err := index.Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reload of re-saved index failed: %v", err)
		}
		if y.N() != x.N() || y.Chains() != x.Chains() || y.Builder() != x.Builder() {
			t.Fatalf("round trip changed identity: n %d->%d chains %d->%d builder %q->%q",
				x.N(), y.N(), x.Chains(), y.Chains(), x.Builder(), y.Builder())
		}
	})
}
