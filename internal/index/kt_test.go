package index

import (
	"bytes"
	"fmt"
	"testing"

	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
)

func mustBuildKT(t testing.TB, g *graph.Graph, par int) *Index {
	t.Helper()
	x, err := BuildKT(g, KTOptions{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// gridArcs builds a layered rectangle-model DAG: rows × cols nodes, every
// node in row r sending fanout seeded-random arcs into row r+1. Small
// rows/large cols is the paper's "wide" shape (H ≈ rows, W ≈ |G|/rows);
// the transpose is "deep".
func gridArcs(rows, cols, fanout int, seed int64) (int, []graph.Arc) {
	n := rows * cols
	node := func(r, c int) int32 { return int32(r*cols + c + 1) }
	rng := uint64(seed)
	next := func(limit int) int {
		// splitmix64-style step; deterministic and dependency-free.
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(limit))
	}
	var arcs []graph.Arc
	for r := 0; r < rows-1; r++ {
		for c := 0; c < cols; c++ {
			for f := 0; f < fanout; f++ {
				arcs = append(arcs, graph.Arc{From: node(r, c), To: node(r+1, next(cols))})
			}
		}
	}
	return n, arcs
}

func TestKTDiamond(t *testing.T) {
	g := diamond()
	x := mustBuildKT(t, g, 1)
	reachAgainstClosure(t, g, x)
	if x.Builder() != BuilderKT {
		t.Fatalf("builder %q, want %q", x.Builder(), BuilderKT)
	}
	// The diamond is covered by two chains either way (width 2), but the
	// KT invariant worth pinning is correctness of the merged labels.
	if x.Chains() < 1 || x.Chains() > 2 {
		t.Fatalf("diamond decomposed into %d chains", x.Chains())
	}
}

func TestKTCyclicGraph(t *testing.T) {
	// Same shape as TestReachCyclicGraph: a 2-cycle, a pendant, a
	// self-loop, an isolated node.
	g := graph.New(5, []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 1}, {From: 2, To: 3}, {From: 4, To: 4},
	})
	x := mustBuildKT(t, g, 2)
	for _, tc := range []struct {
		u, v int32
		want bool
	}{
		{1, 1, true}, {1, 2, true}, {2, 1, true}, {1, 3, true},
		{3, 3, false}, {4, 4, true}, {5, 5, false}, {3, 1, false},
	} {
		if got := x.Reach(tc.u, tc.v); got != tc.want {
			t.Fatalf("Reach(%d,%d) = %t, want %t", tc.u, tc.v, got, tc.want)
		}
	}
}

// TestKTMatchesGreedy pins the two builders to identical answers (Reach
// over all pairs and Successors slices) across generator families.
func TestKTMatchesGreedy(t *testing.T) {
	for _, p := range []graphgen.Params{
		{Nodes: 80, OutDegree: 3, Locality: 10, Seed: 1},
		{Nodes: 120, OutDegree: 2, Locality: 120, Seed: 2},
		{Nodes: 60, OutDegree: 6, Locality: 6, Seed: 3},
	} {
		g, err := graphgen.GenerateGraph(p)
		if err != nil {
			t.Fatal(err)
		}
		xg := mustBuild(t, g)
		xk := mustBuildKT(t, g, 3)
		compareIndexes(t, xg, xk, p.String())
	}
}

// compareIndexes fails unless a and b answer identically on every Reach
// pair and every Successors call.
func compareIndexes(t testing.TB, a, b *Index, stage string) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: node counts differ: %d vs %d", stage, a.N(), b.N())
	}
	n := int32(a.N())
	for u := int32(1); u <= n; u++ {
		for v := int32(1); v <= n; v++ {
			if ga, gb := a.Reach(u, v), b.Reach(u, v); ga != gb {
				t.Fatalf("%s: Reach(%d,%d): %t vs %t", stage, u, v, ga, gb)
			}
		}
		sa, sb := a.Successors(u), b.Successors(u)
		if len(sa) != len(sb) {
			t.Fatalf("%s: Successors(%d): %d vs %d nodes", stage, u, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: Successors(%d)[%d]: %d vs %d", stage, u, i, sa[i], sb[i])
			}
		}
	}
}

// TestKTDeterministicAcrossParallelism: the serialized index must be
// byte-identical at every worker count — the property that keeps golden
// files and replica fingerprint comparisons stable.
func TestKTDeterministicAcrossParallelism(t *testing.T) {
	n, arcs := gridArcs(12, 25, 3, 7)
	g := graph.New(n, arcs)
	var want bytes.Buffer
	if err := mustBuildKT(t, g, 1).Save(&want); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 4, 8, 64} {
		var got bytes.Buffer
		if err := mustBuildKT(t, g, par).Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("parallelism %d produced a different index file (%d vs %d bytes)",
				par, got.Len(), want.Len())
		}
	}
}

// TestKTReducesChainsOnWideGrid pins the decomposition-quality claim the
// committed BENCH entry records: on a wide rectangle-model grid the KT
// builder must cut the chain count by at least 30% and the file size by at
// least 20% against the greedy builder.
func TestKTReducesChainsOnWideGrid(t *testing.T) {
	n, arcs := gridArcs(20, 50, 3, 42)
	g := graph.New(n, arcs)
	xg := mustBuild(t, g)
	xk := mustBuildKT(t, g, 2)
	compareIndexes(t, xg, xk, "wide-grid")
	sg, sk := xg.ComputeStats(), xk.ComputeStats()
	if float64(sk.Chains) > 0.7*float64(sg.Chains) {
		t.Fatalf("kt chains %d vs greedy %d: less than 30%% reduction", sk.Chains, sg.Chains)
	}
	if float64(sk.FileBytes) > 0.8*float64(sg.FileBytes) {
		t.Fatalf("kt file %d bytes vs greedy %d: less than 20%% reduction", sk.FileBytes, sg.FileBytes)
	}
}

// TestKTSaveLoadRoundTrip: a KT index round-trips through the unchanged
// version-1 TCIX format, keeping its answers and its builder name.
func TestKTSaveLoadRoundTrip(t *testing.T) {
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 150, OutDegree: 4, Locality: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(150, arcs)
	x := mustBuildKT(t, g, 4)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.Builder() != BuilderKT {
		t.Fatalf("builder %q after round-trip, want %q", y.Builder(), BuilderKT)
	}
	if y.Chains() != x.Chains() {
		t.Fatalf("chains %d after round-trip, want %d", y.Chains(), x.Chains())
	}
	compareIndexes(t, x, y, "round-trip")
}

// TestKTInsertArc exercises incremental maintenance on a KT-decomposed
// index: acyclicity-preserving inserts fold in place and keep both
// builders in agreement.
func TestKTInsertArc(t *testing.T) {
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 60, OutDegree: 2, Locality: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(60, arcs)
	xg := mustBuild(t, g)
	xk := mustBuildKT(t, g, 2)
	for i := 0; i < 20; i++ {
		u := int32(i*3%59) + 1
		v := u + 1 + int32(i%int(60-u))
		if _, err := xg.InsertArcMerge(u, v); err != nil {
			t.Fatalf("greedy InsertArcMerge(%d,%d): %v", u, v, err)
		}
		if _, err := xk.InsertArcMerge(u, v); err != nil {
			t.Fatalf("kt InsertArcMerge(%d,%d): %v", u, v, err)
		}
	}
	compareIndexes(t, xg, xk, "post-insert")
}

// TestKTInsertArcMerge exercises the in-place SCC collapse on a KT index:
// a cycle-creating insert must merge components identically under both
// decompositions.
func TestKTInsertArcMerge(t *testing.T) {
	n, arcs := gridArcs(6, 8, 2, 3)
	g := graph.New(n, arcs)
	xg := mustBuild(t, g)
	xk := mustBuildKT(t, g, 2)
	// A back arc from the last row to the first closes a long cycle.
	u, v := int32(n), int32(1)
	if !xg.Reach(v, u) {
		// Ensure the pair is actually cycle-creating for this seed.
		t.Fatalf("test graph: %d does not reach %d", v, u)
	}
	mg, err := xg.InsertArcMerge(u, v)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := xk.InsertArcMerge(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if mg != mk {
		t.Fatalf("merged %d components under greedy, %d under kt", mg, mk)
	}
	compareIndexes(t, xg, xk, "post-merge")
}

// TestStatsDegenerateEmptyLabels is the regression test for the inspect
// divide-by-zero: Load accepts a k == n index of one-node chains whose
// labels are all empty (an arcless graph), and every derived Stats ratio
// must come back zero instead of dividing by zero or going NaN.
func TestStatsDegenerateEmptyLabels(t *testing.T) {
	g := graph.New(7, nil) // no arcs: 7 components, 7 one-node chains
	for _, build := range []func() *Index{
		func() *Index { return mustBuild(t, g) },
		func() *Index { return mustBuildKT(t, g, 2) },
	} {
		x := build()
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		y, err := Load(&buf)
		if err != nil {
			t.Fatalf("degenerate k==n index rejected by Load: %v", err)
		}
		st := y.ComputeStats()
		if st.Chains != 7 || st.Components != 7 {
			t.Fatalf("degenerate stats: %+v", st)
		}
		if st.LabelEntries != 0 || st.AvgLabel != 0 || st.P50Label != 0 || st.P95Label != 0 || st.MaxLabel != 0 {
			t.Fatalf("empty labels produced nonzero label stats: %+v", st)
		}
		if st.BytesPerNode <= 0 || st.BytesPerNode != st.BytesPerNode {
			t.Fatalf("bytes/node %v on a degenerate index", st.BytesPerNode)
		}
	}
	// The fully empty graph (n = 0, no components at all) must not panic
	// either; every ratio reports zero.
	empty := mustBuild(t, graph.New(0, nil))
	st := empty.ComputeStats()
	if st.AvgLabel != 0 || st.P50Label != 0 || st.MaxLabel != 0 || st.BytesPerNode != 0 {
		t.Fatalf("empty-graph stats: %+v", st)
	}
	if _, err := BuildKT(graph.New(0, nil), KTOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestKTBuild5kGrid is the CI bench-smoke gate: the parallel KT build of a
// 5000-node wide rectangle-model grid must complete (well inside the CI
// step timeout) and still agree with the greedy decomposition on a probe
// sample.
func TestKTBuild5kGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-node build")
	}
	n, arcs := gridArcs(10, 500, 3, 17)
	g := graph.New(n, arcs)
	xk := mustBuildKT(t, g, 4)
	xg := mustBuild(t, g)
	if xk.Chains() >= xg.Chains() {
		t.Fatalf("kt chains %d not below greedy %d on the 5k grid", xk.Chains(), xg.Chains())
	}
	for u := int32(1); u <= int32(n); u += 97 {
		for v := int32(1); v <= int32(n); v += 89 {
			if xk.Reach(u, v) != xg.Reach(u, v) {
				t.Fatalf("Reach(%d,%d) disagrees on the 5k grid", u, v)
			}
		}
	}
}

func ExampleBuildKT() {
	g := graph.New(4, []graph.Arc{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}})
	x, _ := BuildKT(g, KTOptions{Parallelism: 2})
	fmt.Println(x.Builder(), x.Chains(), x.Reach(1, 4))
	// Output: kt 1 true
}
