package index

import (
	"testing"

	"tcstudy/internal/graph"
)

// diamond is the canonical 4-node DAG: 1 -> {2,3} -> 4.
func diamond() *graph.Graph {
	return graph.New(4, []graph.Arc{{From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4}})
}

func mustBuild(t *testing.T, g *graph.Graph) *Index {
	t.Helper()
	x, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// reachAgainstClosure checks every pair against the graph package's
// reference closure (DAG inputs only).
func reachAgainstClosure(t *testing.T, g *graph.Graph, x *Index) {
	t.Helper()
	succ, err := g.Closure()
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.N())
	for u := int32(1); u <= n; u++ {
		for v := int32(1); v <= n; v++ {
			want := succ[u].Has(v)
			if got := x.Reach(u, v); got != want {
				t.Fatalf("Reach(%d,%d) = %t, closure says %t", u, v, got, want)
			}
		}
	}
}

func TestReachDiamond(t *testing.T) {
	g := diamond()
	x := mustBuild(t, g)
	reachAgainstClosure(t, g, x)
	if x.Reach(1, 1) {
		t.Fatal("acyclic node reaches itself")
	}
	if x.Reach(0, 1) || x.Reach(1, 5) {
		t.Fatal("out-of-range nodes reported reachable")
	}
	if x.N() != 4 || x.NumArcs() != 4 {
		t.Fatalf("shape N=%d arcs=%d", x.N(), x.NumArcs())
	}
}

func TestReachCyclicGraph(t *testing.T) {
	// 1 <-> 2 form a component; 3 hangs off 2; 4 is isolated with a
	// self-loop; 5 is isolated without one.
	g := graph.New(5, []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 1}, {From: 2, To: 3},
		{From: 4, To: 4},
	})
	x := mustBuild(t, g)
	for _, c := range []struct {
		u, v int32
		want bool
	}{
		{1, 1, true}, {1, 2, true}, {2, 1, true}, {2, 2, true},
		{1, 3, true}, {2, 3, true}, {3, 1, false}, {3, 3, false},
		{4, 4, true}, {5, 5, false}, {4, 1, false}, {1, 4, false},
	} {
		if got := x.Reach(c.u, c.v); got != c.want {
			t.Fatalf("Reach(%d,%d) = %t, want %t", c.u, c.v, got, c.want)
		}
	}
	if got := x.Successors(1); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Successors(1) = %v, want [1 2 3]", got)
	}
	if got := x.Successors(4); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Successors(4) = %v, want [4]", got)
	}
	if got := x.Successors(5); len(got) != 0 {
		t.Fatalf("Successors(5) = %v, want empty", got)
	}
}

func TestSuccessorsMatchClosure(t *testing.T) {
	g := graph.New(7, []graph.Arc{
		{From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 3, To: 5},
		{From: 5, To: 6}, {From: 4, To: 6}, {From: 6, To: 7},
	})
	x := mustBuild(t, g)
	succ, err := g.Closure()
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(1); u <= 7; u++ {
		got := x.Successors(u)
		if len(got) != succ[u].Count() {
			t.Fatalf("Successors(%d) has %d nodes, closure %d", u, len(got), succ[u].Count())
		}
		for _, v := range got {
			if !succ[u].Has(v) {
				t.Fatalf("Successors(%d) wrongly includes %d", u, v)
			}
		}
	}
}

func TestInsertArcInPlace(t *testing.T) {
	// Two disjoint paths 1->2->3 and 4->5->6; bridge them with 3->4.
	g := graph.New(6, []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 4, To: 5}, {From: 5, To: 6},
	})
	x := mustBuild(t, g)
	if x.Reach(1, 6) {
		t.Fatal("disjoint halves reachable before insert")
	}
	if merged, err := x.InsertArcMerge(3, 4); err != nil || merged != 0 {
		t.Fatalf("acyclic insert: merged %d components, err %v", merged, err)
	}
	g2 := graph.New(6, append(g.Arcs(), graph.Arc{From: 3, To: 4}))
	reachAgainstClosure(t, g2, x)
	if x.NumArcs() != 5 {
		t.Fatalf("NumArcs = %d after insert, want 5", x.NumArcs())
	}
	// A redundant insert and a duplicate insert change nothing.
	if _, err := x.InsertArcMerge(1, 6); err != nil {
		t.Fatal(err)
	}
	reachAgainstClosure(t, g2, x)
}

func TestInsertArcBackwardButAcyclic(t *testing.T) {
	// 1->2 and 3 isolated: the arc 3->1 runs against node numbering (and
	// likely the stored topological order) but creates no cycle, so it
	// must be folded in place.
	g := graph.New(3, []graph.Arc{{From: 1, To: 2}})
	x := mustBuild(t, g)
	if merged, err := x.InsertArcMerge(3, 1); err != nil || merged != 0 {
		t.Fatalf("backward acyclic insert: merged %d components, err %v", merged, err)
	}
	if !x.Reach(3, 2) || !x.Reach(3, 1) || x.Reach(1, 3) {
		t.Fatal("backward acyclic insert mishandled")
	}
}

func TestInsertArcSelfLoop(t *testing.T) {
	g := diamond()
	x := mustBuild(t, g)
	if _, err := x.InsertArcMerge(2, 2); err != nil {
		t.Fatal(err)
	}
	if !x.Reach(2, 2) {
		t.Fatal("self-loop not recorded")
	}
	if x.Reach(3, 3) {
		t.Fatal("self-loop leaked")
	}
}

func TestInsertArcRejectsOutOfRange(t *testing.T) {
	x := mustBuild(t, diamond())
	if _, err := x.InsertArcMerge(0, 2); err == nil {
		t.Fatal("InsertArcMerge(0,2) accepted")
	}
	if _, err := x.InsertArcMerge(2, 9); err == nil {
		t.Fatal("InsertArcMerge(2,9) accepted")
	}
}

func TestComputeStats(t *testing.T) {
	x := mustBuild(t, diamond())
	st := x.ComputeStats()
	if st.Nodes != 4 || st.Arcs != 4 || st.Components != 4 {
		t.Fatalf("stats %+v", st)
	}
	if st.Chains < 1 || st.Chains > 4 {
		t.Fatalf("implausible chain count %d", st.Chains)
	}
	if st.AvgLabel <= 0 {
		t.Fatalf("AvgLabel = %f", st.AvgLabel)
	}
}
