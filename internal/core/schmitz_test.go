package core

import (
	"math/rand"
	"sort"
	"testing"

	"tcstudy/internal/graph"
)

// refCyclic computes cyclic reachability by brute force: x reaches y iff
// a path of >= 1 arcs exists (so a node in a cycle reaches itself).
func refCyclic(n int, arcs []graph.Arc) [][]bool {
	reach := make([][]bool, n+1)
	for i := range reach {
		reach[i] = make([]bool, n+1)
	}
	for _, a := range arcs {
		reach[a.From][a.To] = true
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if !reach[i][j] {
					continue
				}
				for k := 1; k <= n; k++ {
					if reach[j][k] && !reach[i][k] {
						reach[i][k] = true
						changed = true
					}
				}
			}
		}
	}
	return reach
}

func checkCyclicAnswer(t *testing.T, res *Result, reach [][]bool, nodes []int32, n int) {
	t.Helper()
	for _, x := range nodes {
		got := map[int32]bool{}
		for _, v := range res.Successors[x] {
			got[v] = true
		}
		for y := 1; y <= n; y++ {
			if reach[x][y] != got[int32(y)] {
				t.Fatalf("schmitz: reach(%d,%d) = %v, reference %v", x, y, got[int32(y)], reach[x][y])
			}
		}
	}
}

func TestSchmitzCyclicKnownGraph(t *testing.T) {
	// 1 <-> 2 -> 3, 3 -> 4 <-> 5, 6 with a self-loop, 7 isolated.
	arcs := []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 1}, {From: 2, To: 3},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 4},
		{From: 6, To: 6},
	}
	db := NewDatabase(7, arcs)
	res, err := Run(db, SCHMITZ, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]int32{
		1: {1, 2, 3, 4, 5},
		2: {1, 2, 3, 4, 5},
		3: {4, 5},
		4: {4, 5},
		5: {4, 5},
		6: {6}, // self-loop: reaches itself
		7: nil,
	}
	for x, w := range want {
		got := append([]int32(nil), res.Successors[x]...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(w) {
			t.Fatalf("successors of %d = %v, want %v", x, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("successors of %d = %v, want %v", x, got, w)
			}
		}
	}
}

func TestSchmitzCyclicRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(40) + 5
		var arcs []graph.Arc
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if i != j && rng.Intn(7) == 0 {
					arcs = append(arcs, graph.Arc{From: int32(i), To: int32(j)})
				}
			}
		}
		db := NewDatabase(n, arcs)
		reach := refCyclic(n, arcs)

		// Full closure.
		res, err := Run(db, SCHMITZ, Query{}, Config{BufferPages: 6})
		if err != nil {
			t.Fatal(err)
		}
		var all []int32
		for v := int32(1); v <= int32(n); v++ {
			all = append(all, v)
		}
		checkCyclicAnswer(t, res, reach, all, n)

		// Selection.
		sources := []int32{int32(rng.Intn(n) + 1), int32(rng.Intn(n) + 1)}
		sel, err := Run(db, SCHMITZ, Query{Sources: sources}, Config{BufferPages: 6})
		if err != nil {
			t.Fatal(err)
		}
		checkCyclicAnswer(t, sel, reach, sources, n)
	}
}

func TestSchmitzMatchesCondensationPipeline(t *testing.T) {
	// Same cyclic graph, self-arcs included: Schmitz end-to-end vs
	// condense-then-BTC must agree on reachability.
	rng := rand.New(rand.NewSource(88))
	n := 120
	var arcs []graph.Arc
	for i := 1; i <= n; i++ {
		deg := rng.Intn(4)
		for k := 0; k < deg; k++ {
			arcs = append(arcs, graph.Arc{From: int32(i), To: int32(rng.Intn(n) + 1)})
		}
	}
	g := graph.New(n, arcs)
	cond := g.Condense()
	succ, err := cond.DAG.Closure()
	if err != nil {
		t.Fatal(err)
	}
	expanded := cond.ExpandClosure(succ)

	db := NewDatabase(n, arcs)
	res, err := Run(db, SCHMITZ, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for x := int32(1); x <= int32(n); x++ {
		a := append([]int32(nil), res.Successors[x]...)
		b := append([]int32(nil), expanded[x]...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if len(a) != len(b) {
			t.Fatalf("node %d: schmitz %d successors, condensation %d", x, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: answers differ", x)
			}
		}
	}
}

func TestSchmitzSharedCycleListsAreShared(t *testing.T) {
	// All members of one big cycle share a single component list, so the
	// storage cost is one list, not n copies.
	n := 100
	var arcs []graph.Arc
	for i := 1; i <= n; i++ {
		next := i%n + 1
		arcs = append(arcs, graph.Arc{From: int32(i), To: int32(next)})
	}
	db := NewDatabase(n, arcs)
	res, err := Run(db, SCHMITZ, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for x := int32(1); x <= int32(n); x++ {
		if len(res.Successors[x]) != n {
			t.Fatalf("cycle member %d reaches %d nodes, want %d", x, len(res.Successors[x]), n)
		}
	}
	// One component list of n entries: two slist pages, far below n lists.
	if res.Metrics.Compute.Writes > 10 {
		t.Fatalf("cycle closure wrote %d pages; component sharing broken?",
			res.Metrics.Compute.Writes)
	}
}
