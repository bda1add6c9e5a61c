package core

import (
	"testing"

	"tcstudy/internal/bitmatrix"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
)

// rowsEqual asserts two successor maps agree row for row over nodes 1..n.
func rowsEqual(t *testing.T, label string, n int, got, want map[int32][]int32) {
	t.Helper()
	for v := int32(1); v <= int32(n); v++ {
		g, w := sorted(got[v]), sorted(want[v])
		if len(g) != len(w) {
			t.Fatalf("%s: node %d has %d successors, want %d", label, v, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: successors of node %d differ at rank %d: got %d, want %d",
					label, v, i, g[i], w[i])
			}
		}
	}
}

// TestBitMatrixDenseCoreVsBTC is the property battery the kernel ships
// inside: for 50 seeded dense-core DAGs (high out-degree relative to node
// count, so the condensation equals the graph and sits well above the
// density gate), the bit-matrix closure must equal BTC's row for row —
// full closure and a selection query both.
func TestBitMatrixDenseCoreVsBTC(t *testing.T) {
	nSeeds := 50
	if testing.Short() {
		nSeeds = 8
	}
	for i := 0; i < nSeeds; i++ {
		seed := int64(9000 + i)
		n := 40 + (i%7)*25 // 40..190 nodes: inside the always-fits bound
		f := 6 + i%5       // out-degree 6..10: dense cores
		l := n             // full locality, the densest shape the generator makes
		_, db := randomDAG(t, seed, n, f, l)

		btc, err := Run(db, BTC, Query{}, Config{BufferPages: 10})
		if err != nil {
			t.Fatalf("seed=%d: btc: %v", seed, err)
		}
		bitm, err := Run(db, BITM, Query{}, Config{BufferPages: 10})
		if err != nil {
			t.Fatalf("seed=%d: bitmatrix: %v", seed, err)
		}
		if bitm.Metrics.TuplesGenerated != 0 {
			t.Fatalf("seed=%d: dense core should run the kernel, but tuple counters show list work", seed)
		}
		rowsEqual(t, "full closure", n, bitm.Successors, btc.Successors)

		srcs := []int32{1, int32(n/2) + 1, int32(n)}
		btcSel, err := Run(db, BTC, Query{Sources: srcs}, Config{BufferPages: 10})
		if err != nil {
			t.Fatalf("seed=%d: btc selection: %v", seed, err)
		}
		bitmSel, err := Run(db, BITM, Query{Sources: srcs}, Config{BufferPages: 10})
		if err != nil {
			t.Fatalf("seed=%d: bitmatrix selection: %v", seed, err)
		}
		for _, s := range srcs {
			g, w := sorted(bitmSel.Successors[s]), sorted(btcSel.Successors[s])
			if len(g) != len(w) {
				t.Fatalf("seed=%d: source %d has %d successors, BTC says %d", seed, s, len(g), len(w))
			}
			for j := range w {
				if g[j] != w[j] {
					t.Fatalf("seed=%d: source %d rank %d: got %d, BTC says %d", seed, s, j, g[j], w[j])
				}
			}
		}
	}
}

// TestBitMatrixDegenerateCores covers the degenerate ends of the SCC
// spectrum: a single-node graph (one trivial component, empty closure)
// and a graph whose nodes all share one strongly connected component
// (the condensation is a single node; every node reaches every node,
// itself included).
func TestBitMatrixDegenerateCores(t *testing.T) {
	// Single node, no arcs.
	db := NewDatabase(1, nil)
	res, err := Run(db, BITM, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("single node: %v", err)
	}
	if len(res.Successors[1]) != 0 {
		t.Fatalf("single node: got successors %v, want none", res.Successors[1])
	}

	// All nodes in one SCC: a ring with chords. Cyclic, so the reference
	// is Schmitz (the engine's cyclic-native algorithm) and the BFS oracle
	// semantics: every node reaches all n nodes including itself.
	const n = 60
	var arcs []graph.Arc
	for i := int32(1); i <= n; i++ {
		next := i%n + 1
		arcs = append(arcs, graph.Arc{From: i, To: next})
		if i%7 == 0 {
			arcs = append(arcs, graph.Arc{From: i, To: (i+13)%n + 1})
		}
	}
	db = NewDatabase(n, arcs)
	bitm, err := Run(db, BITM, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("one-scc: bitmatrix: %v", err)
	}
	schmitz, err := Run(db, SCHMITZ, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("one-scc: schmitz: %v", err)
	}
	rowsEqual(t, "one-scc", n, bitm.Successors, schmitz.Successors)
	for v := int32(1); v <= n; v++ {
		if len(bitm.Successors[v]) != n {
			t.Fatalf("one-scc: node %d reaches %d nodes, want %d", v, len(bitm.Successors[v]), n)
		}
	}
	if bitm.Metrics.MagicNodes != 1 {
		t.Fatalf("one-scc: condensation has %d nodes, want 1", bitm.Metrics.MagicNodes)
	}
}

// TestBitMatrixThresholdBoundary pins the engine-side selection on shapes
// just under and just over the kernel's fit threshold: both sides must be
// exact, and the metric record must show which path ran (the kernel does
// whole-row work and generates no tuples; the list fallback does).
func TestBitMatrixThresholdBoundary(t *testing.T) {
	if bitmatrix.SmallN != 512 {
		t.Fatalf("test assumes SmallN=512, got %d", bitmatrix.SmallN)
	}
	// Just under: 512 sparse nodes always fit the kernel.
	underN := bitmatrix.SmallN
	_, under := randomDAG(t, 31, underN, 2, 16)
	resUnder, err := Run(under, BITM, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("under: %v", err)
	}
	if resUnder.Metrics.TuplesGenerated != 0 {
		t.Fatal("under threshold: expected the kernel, metric record shows list work")
	}

	// Just over: 513 nodes at the same sparse shape miss the density gate
	// and must fall back to BTC — still exact.
	overN := bitmatrix.SmallN + 1
	gOver, over := randomDAG(t, 32, overN, 2, 16)
	if bitmatrix.Fits(overN, gOver.NumArcs()) {
		t.Fatalf("shape error: %d nodes %d arcs should not fit", overN, gOver.NumArcs())
	}
	resOver, err := Run(over, BITM, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("over: %v", err)
	}
	if resOver.Metrics.TuplesGenerated == 0 {
		t.Fatal("over threshold: expected the BTC fallback, metric record shows no list work")
	}
	btcOver, err := Run(over, BTC, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("over: btc: %v", err)
	}
	rowsEqual(t, "over-threshold fallback", overN, resOver.Successors, btcOver.Successors)

	// Both sides against the BFS reference, so the boundary cannot hide a
	// shared engine bug.
	gUnder, _ := randomDAG(t, 31, underN, 2, 16)
	rowsEqual(t, "under vs bfs", underN, resUnder.Successors, bfsReference(underN, gUnder.Arcs()))
	rowsEqual(t, "over vs bfs", overN, resOver.Successors, bfsReference(overN, gOver.Arcs()))
}

// TestBitMatrixOversizedCyclicFallsBackToSchmitz: an over-threshold input
// with cycles cannot take the BTC fallback (BTC's restructuring requires a
// DAG); the engine must route it to Schmitz and stay exact.
func TestBitMatrixOversizedCyclicFallsBackToSchmitz(t *testing.T) {
	n := bitmatrix.SmallN + 200
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: n, OutDegree: 2, Locality: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A few short back arcs create small cycles without densifying the
	// graph or collapsing the condensation below the always-fit bound.
	for i := 1; i+5 <= n; i += 97 {
		arcs = append(arcs, graph.Arc{From: int32(i + 5), To: int32(i)})
	}
	g := graph.New(n, arcs)
	cond := g.Condense()
	if bitmatrix.Fits(cond.DAG.N(), cond.DAG.NumArcs()) {
		t.Fatalf("shape error: condensation %d nodes %d arcs should not fit",
			cond.DAG.N(), cond.DAG.NumArcs())
	}
	db := NewDatabase(n, arcs)
	res, err := Run(db, BITM, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatalf("bitmatrix on oversized cyclic input: %v", err)
	}
	rowsEqual(t, "oversized cyclic", n, res.Successors, bfsReference(n, arcs))
}
