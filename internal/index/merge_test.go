package index

import (
	"bytes"
	"math/rand"
	"testing"

	"tcstudy/internal/graph"
)

// bfsReach computes the closure-semantics reach matrix (u reaches v via a
// path of length >= 1) by per-source BFS, the oracle InsertArcMerge is
// pinned against. Unlike graph.Closure it handles cycles.
func bfsReach(n int, arcs []graph.Arc) [][]bool {
	adj := make([][]int32, n+1)
	for _, a := range arcs {
		adj[a.From] = append(adj[a.From], a.To)
	}
	reach := make([][]bool, n+1)
	for u := 1; u <= n; u++ {
		seen := make([]bool, n+1)
		var queue []int32
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		reach[u] = seen
	}
	return reach
}

func checkAgainstOracle(t *testing.T, x *Index, n int, arcs []graph.Arc, ctx string) {
	t.Helper()
	want := bfsReach(n, arcs)
	for u := int32(1); u <= int32(n); u++ {
		for v := int32(1); v <= int32(n); v++ {
			if got := x.Reach(u, v); got != want[u][v] {
				t.Fatalf("%s: Reach(%d,%d) = %t, oracle %t", ctx, u, v, got, want[u][v])
			}
		}
		succ := x.Successors(u)
		cnt := 0
		for v := 1; v <= n; v++ {
			if want[u][v] {
				cnt++
			}
		}
		if len(succ) != cnt {
			t.Fatalf("%s: Successors(%d) has %d nodes, oracle %d (%v)", ctx, u, len(succ), cnt, succ)
		}
		for i, v := range succ {
			if !want[u][v] {
				t.Fatalf("%s: Successors(%d) wrongly includes %d", ctx, u, v)
			}
			if i > 0 && succ[i-1] >= v {
				t.Fatalf("%s: Successors(%d) not strictly ascending: %v", ctx, u, succ)
			}
		}
	}
}

func TestInsertArcMergeCollapsesCycle(t *testing.T) {
	g := diamond()
	x := mustBuild(t, g)
	merged, err := x.InsertArcMerge(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 3 {
		t.Fatalf("merged %d components, want 3 (2, 3 and 4 into 1's)", merged)
	}
	arcs := append(g.Arcs(), graph.Arc{From: 4, To: 1})
	checkAgainstOracle(t, x, 4, arcs, "after 4->1")

	st := x.ComputeStats()
	if st.Merged != 3 {
		t.Fatalf("stats report %d merged components, want 3", st.Merged)
	}
	if st.Generation != 1 {
		t.Fatalf("generation %d after one fold, want 1", st.Generation)
	}

	// The merged index keeps accepting work: an acyclic extension and a
	// second collapse into the existing merged component.
	// (Nodes 1..4 are now one SCC; there is nothing left to merge here,
	// so grow the graph view instead via redundant inserts.)
	if _, err := x.InsertArcMerge(2, 4); err != nil {
		t.Fatal(err)
	}
	arcs = append(arcs, graph.Arc{From: 2, To: 4})
	checkAgainstOracle(t, x, 4, arcs, "after redundant 2->4")
}

func TestInsertArcMergePartialCycle(t *testing.T) {
	// Path 1->2->3->4->5 plus a bystander 6->3. Arc 4->2 collapses {2,3,4}
	// but must leave 1, 5, 6 as they are, with 1 and 6 now reaching the
	// merged component and the merged component still reaching 5.
	g := graph.New(6, []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
		{From: 6, To: 3},
	})
	x := mustBuild(t, g)
	merged, err := x.InsertArcMerge(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 2 {
		t.Fatalf("merged %d components, want 2", merged)
	}
	arcs := append(g.Arcs(), graph.Arc{From: 4, To: 2})
	checkAgainstOracle(t, x, 6, arcs, "after 4->2")

	// A later cycle that swallows the already-merged component.
	if _, err := x.InsertArcMerge(5, 1); err != nil {
		t.Fatal(err)
	}
	arcs = append(arcs, graph.Arc{From: 5, To: 1})
	checkAgainstOracle(t, x, 6, arcs, "after 5->1")
}

func TestInsertArcMergeSelfLoopAndDeletePatches(t *testing.T) {
	g := diamond()
	x := mustBuild(t, g)
	if _, err := x.InsertArcMerge(3, 3); err != nil {
		t.Fatal(err)
	}
	if !x.Reach(3, 3) {
		t.Fatal("self-loop insert not recorded")
	}
	if err := x.DeleteSelfLoop(3); err != nil {
		t.Fatal(err)
	}
	if x.Reach(3, 3) {
		t.Fatal("self-loop delete not recorded")
	}
	// 1->4 is covered by 1->2->4, so deleting it is closure-preserving.
	if _, err := x.InsertArcMerge(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := x.DeleteRedundantArc(1, 4); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, x, 4, diamond().Arcs(), "after add+delete of redundant 1->4")
	if x.NumArcs() != 4 {
		t.Fatalf("NumArcs = %d after balanced insert/delete, want 4", x.NumArcs())
	}
}

// TestInsertArcMergeRandomSchedules drives seeded random insert schedules —
// roughly a third of them closing cycles — and pins the full reach matrix
// and successor sets to the BFS oracle after every insert.
func TestInsertArcMergeRandomSchedules(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var arcs []graph.Arc
		for u := int32(1); u < n; u++ {
			for d := int32(1); d <= 3; d++ {
				if u+d <= n && rng.Intn(2) == 0 {
					arcs = append(arcs, graph.Arc{From: u, To: u + d})
				}
			}
		}
		g := graph.New(n, arcs)
		x := mustBuild(t, g)
		cur := g.Arcs() // sorted, deduped
		for step := 0; step < 30; step++ {
			u, v := int32(rng.Intn(n)+1), int32(rng.Intn(n)+1)
			if _, err := x.InsertArcMerge(u, v); err != nil {
				t.Fatalf("seed %d step %d: InsertArcMerge(%d,%d): %v", seed, step, u, v, err)
			}
			cur = append(cur, graph.Arc{From: u, To: v})
			if step%5 == 4 || step == 29 {
				checkAgainstOracle(t, x, n, cur, "schedule")
			}
		}
	}
}

// TestMergedIndexSurvivesSaveLoad proves the on-disk format needs no
// extension for merged indexes: comp is canonical, absorbed components
// reload with empty member lists, and answers are unchanged.
func TestMergedIndexSurvivesSaveLoad(t *testing.T) {
	g := graph.New(6, []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
		{From: 6, To: 3},
	})
	x := mustBuild(t, g)
	if _, err := x.InsertArcMerge(4, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	arcs := append(g.Arcs(), graph.Arc{From: 4, To: 2})
	checkAgainstOracle(t, y, 6, arcs, "reloaded merged index")
	// And the reloaded index keeps accepting merging inserts.
	if _, err := y.InsertArcMerge(5, 1); err != nil {
		t.Fatal(err)
	}
	arcs = append(arcs, graph.Arc{From: 5, To: 1})
	checkAgainstOracle(t, y, 6, arcs, "reloaded then merged again")
}
