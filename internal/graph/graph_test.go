package graph

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph is the example DAG of Figure 1(a) in the paper, as far as its
// arcs can be read from the text: d has children f and j; f reaches j via g;
// g has children j and k; j has child l; k has children l and m. Node IDs:
// a=1 b=2 d=3 e=4 f=5 g=6 j=7 k=8 l=9 m=10.
func paperGraph() *Graph {
	return New(10, []Arc{
		{1, 3},         // a -> d
		{3, 5}, {3, 7}, // d -> f, d -> j (the marked arc)
		{5, 6},         // f -> g
		{6, 7}, {6, 8}, // g -> j, g -> k
		{7, 9},          // j -> l
		{8, 9}, {8, 10}, // k -> l, k -> m
		{2, 4}, // b -> e
	})
}

func TestNewSortsAndDedups(t *testing.T) {
	g := New(4, []Arc{{1, 3}, {1, 2}, {1, 3}, {2, 4}})
	ch := g.Children(1)
	if len(ch) != 2 || ch[0] != 2 || ch[1] != 3 {
		t.Fatalf("Children(1) = %v", ch)
	}
	if g.NumArcs() != 3 {
		t.Fatalf("NumArcs = %d, want 3", g.NumArcs())
	}
}

func TestNewPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range arc")
		}
	}()
	New(3, []Arc{{1, 4}})
}

func TestTopoSort(t *testing.T) {
	g := paperGraph()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("order has %d nodes", len(order))
	}
	pos := make(map[int32]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, a := range g.Arcs() {
		if pos[a.From] >= pos[a.To] {
			t.Fatalf("arc (%d,%d) violates topological order", a.From, a.To)
		}
	}
}

// TestTopoSortCyclic: whatever closes the cycle and wherever it sits, the
// node ErrCyclic names lies on one.
func TestTopoSortCyclic(t *testing.T) {
	for _, tc := range []struct {
		name string
		arcs []Arc
	}{
		{"a back arc", []Arc{{1, 2}, {2, 3}, {3, 1}}},
		{"a self-arc", []Arc{{1, 2}, {2, 3}, {3, 3}}},
		{"a cycle not reachable from node 1", []Arc{{1, 2}, {4, 5}, {5, 6}, {6, 4}, {3, 4}}},
	} {
		g := New(6, tc.arcs)
		_, err := g.TopoSort()
		var ce ErrCyclic
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want ErrCyclic", tc.name, err)
		}
		if !g.Reachable([]int32{ce.Node}).Has(ce.Node) {
			t.Errorf("%s: ErrCyclic names node %d, which does not reach itself", tc.name, ce.Node)
		}
	}
}

// TestTopoSortDeepGraphNoOverflow: a 200k-node chain, which would overflow a
// recursive DFS, through everything that walks — open, and closed into one
// 200k-node component.
func TestTopoSortDeepGraphNoOverflow(t *testing.T) {
	n := 200000
	arcs := make([]Arc, 0, n)
	for i := 1; i < n; i++ {
		arcs = append(arcs, Arc{int32(i), int32(i + 1)})
	}
	g := New(n, arcs)
	if _, err := g.TopoSort(); err != nil {
		t.Fatal(err)
	}
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv[1] != int32(n) {
		t.Fatalf("level(head of chain) = %d, want %d", lv[1], n)
	}
	if scc := SCC(n, arcs); scc.K() != n || scc.Component[1] != int32(n) || slices.Contains(scc.Cyclic, true) {
		t.Fatalf("SCC of the chain: %d components, head in %d, want %d singletons in reverse order", scc.K(), scc.Component[1], n)
	}
	arcs = append(arcs, Arc{int32(n), 1})
	if scc := SCC(n, arcs); scc.K() != 1 || !scc.Cyclic[1] {
		t.Fatalf("SCC of the closed chain: %d components, want one cyclic", scc.K())
	}
	if c := New(n, arcs).Condense(); c.DAG.N() != 1 || len(c.Members[1]) != n {
		t.Fatalf("condensation of the closed chain: %d components", c.DAG.N())
	}
}

func TestLevels(t *testing.T) {
	g := paperGraph()
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Sinks l(9), m(10), e(4) have level 1.
	for _, sink := range []int32{9, 10, 4} {
		if lv[sink] != 1 {
			t.Fatalf("level(%d) = %d, want 1", sink, lv[sink])
		}
	}
	// a(1) -> d -> f -> g -> j -> l is the longest path: level(a) = 6.
	if lv[1] != 6 {
		t.Fatalf("level(a) = %d, want 6", lv[1])
	}
	if lv[7] != 2 { // j -> l
		t.Fatalf("level(j) = %d, want 2", lv[7])
	}
}

func TestClosureAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40) + 2
		var arcs []Arc
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(4) == 0 {
					arcs = append(arcs, Arc{int32(i), int32(j)})
				}
			}
		}
		g := New(n, arcs)
		succ, err := g.Closure()
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: repeated relaxation.
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
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if reach[i][j] != succ[i].Has(int32(j)) {
					t.Fatalf("n=%d: closure disagrees at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestReductionMinimalAndClosurePreserving(t *testing.T) {
	g := paperGraph()
	tr, redundant, err := g.Reduction()
	if err != nil {
		t.Fatal(err)
	}
	// The arc (d,j) = (3,7) is redundant: d -> f -> g -> j.
	if !redundant(Arc{3, 7}) {
		t.Fatal("(d,j) not detected as redundant")
	}
	if redundant(Arc{3, 5}) {
		t.Fatal("(d,f) wrongly redundant")
	}
	if tr.NumArcs() != g.NumArcs()-1 {
		t.Fatalf("reduction has %d arcs, want %d", tr.NumArcs(), g.NumArcs()-1)
	}
	// Closure preserved.
	a, _ := g.Closure()
	b, _ := tr.Closure()
	for i := 1; i <= g.N(); i++ {
		if !a[i].Equal(b[i]) {
			t.Fatalf("closure changed at node %d", i)
		}
	}
}

func TestRectangleModelTheorem1(t *testing.T) {
	// On random DAGs: H(G) = H(TR) = H(TC); W(TR) <= W(G) <= W(TC).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 3
		var arcs []Arc
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(3) == 0 {
					arcs = append(arcs, Arc{int32(i), int32(j)})
				}
			}
		}
		g := New(n, arcs)
		if g.NumArcs() == 0 {
			return true
		}
		tr, _, err := g.Reduction()
		if err != nil {
			return false
		}
		tc, err := g.ClosureGraph()
		if err != nil {
			return false
		}
		rg, _ := g.RectangleModel()
		rtr, _ := tr.RectangleModel()
		rtc, _ := tc.RectangleModel()
		const eps = 1e-9
		if abs(rg.H-rtr.H) > eps || abs(rg.H-rtc.H) > eps {
			return false
		}
		return rtr.W <= rg.W+eps && rg.W <= rtc.W+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestClosureIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		var arcs []Arc
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(3) == 0 {
					arcs = append(arcs, Arc{int32(i), int32(j)})
				}
			}
		}
		g := New(n, arcs)
		tc, err := g.ClosureGraph()
		if err != nil {
			return false
		}
		tc2, err := tc.ClosureGraph()
		if err != nil {
			return false
		}
		return tc.NumArcs() == tc2.NumArcs()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClosureOfReductionEqualsClosure(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		var arcs []Arc
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(3) == 0 {
					arcs = append(arcs, Arc{int32(i), int32(j)})
				}
			}
		}
		g := New(n, arcs)
		tr, _, err := g.Reduction()
		if err != nil {
			return false
		}
		a, _ := g.Closure()
		b, _ := tr.Closure()
		for i := 1; i <= n; i++ {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReachable(t *testing.T) {
	g := paperGraph()
	r := g.Reachable([]int32{3}) // d reaches f,g,j,k,l,m
	want := []int32{5, 6, 7, 8, 9, 10}
	if r.Count() != len(want) {
		t.Fatalf("reachable(d) count = %d, want %d", r.Count(), len(want))
	}
	for _, v := range want {
		if !r.Has(v) {
			t.Fatalf("reachable(d) missing %d", v)
		}
	}
}

func TestReverse(t *testing.T) {
	g := paperGraph()
	rev := g.Reverse()
	if rev.NumArcs() != g.NumArcs() {
		t.Fatal("reverse changed arc count")
	}
	ch := rev.Children(9) // predecessors of l: j, k
	if len(ch) != 2 || ch[0] != 7 || ch[1] != 8 {
		t.Fatalf("Reverse children of l = %v", ch)
	}
}

func TestCondenseAcyclicIsIdentityShaped(t *testing.T) {
	g := paperGraph()
	c := g.Condense()
	if c.DAG.N() != g.N() {
		t.Fatalf("acyclic condensation has %d components, want %d", c.DAG.N(), g.N())
	}
	if c.DAG.NumArcs() != g.NumArcs() {
		t.Fatalf("acyclic condensation has %d arcs, want %d", c.DAG.NumArcs(), g.NumArcs())
	}
	if _, err := c.DAG.TopoSort(); err != nil {
		t.Fatalf("condensation not acyclic: %v", err)
	}
}

func TestCondenseCycle(t *testing.T) {
	// 1 <-> 2 -> 3 <-> 4, plus 3 -> 5.
	g := New(5, []Arc{{1, 2}, {2, 1}, {2, 3}, {3, 4}, {4, 3}, {3, 5}})
	c := g.Condense()
	if c.DAG.N() != 3 {
		t.Fatalf("components = %d, want 3", c.DAG.N())
	}
	if c.Component[1] != c.Component[2] || c.Component[3] != c.Component[4] {
		t.Fatal("cycle members in different components")
	}
	if c.Component[1] == c.Component[3] || c.Component[5] == c.Component[3] {
		t.Fatal("distinct components merged")
	}
	if _, err := c.DAG.TopoSort(); err != nil {
		t.Fatalf("condensation cyclic: %v", err)
	}
	if !c.Cyclic[c.Component[1]] || !c.Cyclic[c.Component[3]] || c.Cyclic[c.Component[5]] {
		t.Fatalf("cyclic components = %v over %v", c.Cyclic, c.Component)
	}
}

func TestIsDAG(t *testing.T) {
	for _, tc := range []struct {
		name string
		arcs []Arc
		want bool
	}{
		{"no arcs", nil, true},
		{"forward arcs only", []Arc{{1, 2}, {2, 3}, {1, 3}}, true},
		{"a backward arc that closes nothing", []Arc{{3, 1}, {1, 2}}, true},
		{"a back arc closing a cycle", []Arc{{1, 2}, {2, 3}, {3, 1}}, false},
		{"a self-arc", []Arc{{1, 2}, {2, 2}}, false},
	} {
		if got := IsDAG(3, tc.arcs); got != tc.want {
			t.Errorf("%s: IsDAG = %t, want %t", tc.name, got, tc.want)
		}
		if _, err := New(3, tc.arcs).TopoSort(); (err == nil) != tc.want {
			t.Errorf("%s: TopoSort disagrees: %v", tc.name, err)
		}
	}
}

func TestCondensationClosureMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		var arcs []Arc
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if rng.Intn(6) == 0 { // self-arcs included: such a node reaches itself
					arcs = append(arcs, Arc{int32(i), int32(j)})
				}
			}
		}
		g := New(n, arcs)
		c := g.Condense()
		succ, err := c.DAG.Closure()
		if err != nil {
			return false
		}
		got := c.ExpandClosure(succ)
		// Brute force reachability on the cyclic graph.
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
		for u := 1; u <= n; u++ {
			set := map[int32]bool{}
			for _, v := range got[u] {
				set[v] = true
			}
			for v := 1; v <= n; v++ {
				if reach[u][v] != set[int32(v)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := paperGraph()
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arcs != 10 {
		t.Fatalf("Arcs = %d", st.Arcs)
	}
	if st.MaxLevel != 6 {
		t.Fatalf("MaxLevel = %d, want 6", st.MaxLevel)
	}
	if st.IrredundArcs != 9 {
		t.Fatalf("IrredundArcs = %d, want 9", st.IrredundArcs)
	}
	// W = |G| / H and H > 0.
	if st.H <= 0 || abs(st.W-float64(st.Arcs)/st.H) > 1e-9 {
		t.Fatalf("rectangle model inconsistent: H=%v W=%v", st.H, st.W)
	}
	// Closure of the example graph: count via reference.
	tc, _ := g.ClosureSize()
	if st.ClosureSize != tc {
		t.Fatalf("ClosureSize = %d, want %d", st.ClosureSize, tc)
	}
	// Irredundant arcs have lower average locality than all arcs
	// (the redundant (d,j) spans levels 5 -> 2).
	if st.AvgIrredLoc > st.AvgLocality {
		t.Fatalf("irredundant locality %v > overall %v", st.AvgIrredLoc, st.AvgLocality)
	}
}

// TestLevelsMatchBruteForceLongestPath: level(v) is one plus the longest
// path length from v to any sink.
func TestLevelsMatchBruteForceLongestPath(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		var arcs []Arc
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Intn(3) == 0 {
					arcs = append(arcs, Arc{int32(i), int32(j)})
				}
			}
		}
		g := New(n, arcs)
		lv, err := g.Levels()
		if err != nil {
			return false
		}
		// Brute force longest path by memoized recursion.
		memo := make([]int32, n+1)
		var longest func(v int32) int32
		longest = func(v int32) int32 {
			if memo[v] != 0 {
				return memo[v]
			}
			best := int32(0)
			for _, c := range g.Children(v) {
				if d := longest(c); d > best {
					best = d
				}
			}
			memo[v] = best + 1
			return memo[v]
		}
		for v := int32(1); v <= int32(n); v++ {
			if lv[v] != longest(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadArcs(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		arcs     []Arc
		nodes    int
		errHas   string
	}{
		{"pairs", "1 2\n2 7\n", []Arc{{1, 2}, {2, 7}}, 7, ""},
		{"comments, blank lines and spacing", "# tcgen -dump\n\n  3\t4  \n#5 6\n", []Arc{{3, 4}}, 4, ""},
		{"empty input", "", nil, 0, ""},
		{"three fields", "1 2\n1 2 3\n", nil, 0, "line 2: want"},
		{"not a number", "1 x\n", nil, 0, "line 1: bad arc"},
		{"node id zero", "4 5\n0 1\n", nil, 0, "line 2: bad arc"},
		{"negative node id", "1 -2\n", nil, 0, "line 1: bad arc"},
		{"node id beyond int32", "1 4294967297\n", nil, 0, "line 1: bad arc"},
	} {
		arcs, nodes, err := ReadArcs(strings.NewReader(tc.in))
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.errHas)
			}
			continue
		}
		if err != nil || nodes != tc.nodes || !slices.Equal(arcs, tc.arcs) {
			t.Errorf("%s: got %v over %d nodes (%v), want %v over %d", tc.name, arcs, nodes, err, tc.arcs, tc.nodes)
		}
	}
	if _, _, err := ReadArcFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("ReadArcFile opened a missing file")
	}
}
