package chaos

import (
	"sort"
	"testing"

	"tcstudy"
	"tcstudy/internal/core"
)

// cyclicCases are the seeded cyclic digraphs of the harness: three shapes
// of the clean grid with back arcs and self-arcs added (Case.Cyclic).
func cyclicCases() []Case {
	return []Case{
		{Seed: 31, Nodes: 30, OutDegree: 2, Locality: 10, BufferPages: 5, Cyclic: true},
		{Seed: 32, Nodes: 60, OutDegree: 3, Locality: 15, BufferPages: 5, Cyclic: true},
		{Seed: 33, Nodes: 100, OutDegree: 4, Locality: 25, BufferPages: 12, Cyclic: true},
	}
}

// cyclicShapes are the query shapes every cyclic case is asked: the full
// closure, one source that lies on a cycle, and eight drawn sources.
func cyclicShapes(t *testing.T, c Case, oracle map[int32][]int32) [][]int32 {
	t.Helper()
	for v := int32(1); v <= int32(c.Nodes); v++ {
		i := sort.Search(len(oracle[v]), func(i int) bool { return oracle[v][i] >= v })
		if i < len(oracle[v]) && oracle[v][i] == v && len(oracle[v]) > 1 {
			c.Sources = 8
			_, _, eight, err := c.materialize()
			if err != nil {
				t.Fatal(err)
			}
			return [][]int32{nil, {v}, eight}
		}
	}
	t.Fatalf("case {%s}: no node on a cycle", c)
	return nil
}

// TestCyclicCasesRecorded records what this commit does with cyclic input,
// before the decision moves: core.Run answers every strategy with a nil
// error, seven of them wrongly, and the façade's condensation route drops
// self-loops.
func TestCyclicCasesRecorded(t *testing.T) {
	wrong := map[core.Algorithm]bool{}
	selfLoopDropped := false
	for _, c := range cyclicCases() {
		g, db, _, err := c.materialize()
		if err != nil {
			t.Fatal(err)
		}
		full := Oracle(c.Nodes, g.Arcs(), nil)
		for _, sources := range cyclicShapes(t, c, full) {
			want := Oracle(c.Nodes, g.Arcs(), sources)
			for _, alg := range core.Algorithms() {
				res, err := core.Run(db, alg, core.Query{Sources: sources}, c.config())
				if err != nil {
					t.Fatalf("case {%s}: %s sources %v: %v", c, alg, sources, err)
				}
				if diff(res.Successors, want) != nil {
					wrong[alg] = true
				}
			}
		}
		cc, err := tcstudy.ClosureOfCyclic(tcstudy.NewGraph(c.Nodes, g.Arcs()), tcstudy.BTC, c.config())
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int32][]int32, c.Nodes)
		for v := 1; v <= c.Nodes; v++ {
			got[int32(v)] = cc.Successors[v]
		}
		if diff(got, full) != nil {
			selfLoopDropped = true
		}
	}
	for _, alg := range core.Algorithms() {
		expect := false
		switch alg {
		case core.BTC, core.HYB, core.BJ, core.SRCH, core.SPN, core.JKB, core.JKB2:
			expect = true
		}
		if wrong[alg] != expect {
			t.Errorf("%s: wrong answers on cyclic input = %t, recorded %t", alg, wrong[alg], expect)
		}
	}
	if !selfLoopDropped {
		t.Error("ClosureOfCyclic agrees with the oracle on self-loop nodes; recorded as disagreeing")
	}
}
