package core

import (
	"slices"
	"testing"

	"tcstudy/internal/graph"
)

// FuzzCyclicEveryStrategy decodes a small digraph whose arcs may point
// backwards or at their own tail, and checks every strategy's full closure
// and one partial closure against graph.Reachable: the DAG-only strategies
// answer through the condensation, the others on the graph as it is, and a
// node reaches itself exactly when it lies on a cycle or carries a self-arc.
func FuzzCyclicEveryStrategy(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1}, uint8(2))
	f.Add([]byte{1, 1, 1, 2}, uint8(1))
	f.Add([]byte{5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 1, 3, 3, 5, 6, 7, 7, 6}, uint8(6))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, raw []byte, src uint8) {
		const n = 10
		var arcs []graph.Arc
		for i := 0; i+1 < len(raw); i += 2 {
			arcs = append(arcs, graph.Arc{From: int32(raw[i]%n) + 1, To: int32(raw[i+1]%n) + 1})
		}
		g := graph.New(n, arcs)
		want := func(v int32) []int32 {
			var out []int32
			g.Reachable([]int32{v}).ForEach(func(u int32) { out = append(out, u) })
			return out
		}
		db := NewDatabase(n, arcs)
		source := int32(src%n) + 1
		for _, alg := range Algorithms() {
			for _, q := range []Query{{}, {Sources: []int32{source}}} {
				res, err := Run(db, alg, q, Config{BufferPages: 8})
				if err != nil {
					t.Fatalf("%s sources %v: %v", alg, q.Sources, err)
				}
				nodes := q.Sources
				for v := int32(1); q.IsFull() && v <= n; v++ {
					nodes = append(nodes, v)
				}
				if len(res.Successors) != len(nodes) {
					t.Fatalf("%s sources %v: answer has %d rows, want %d", alg, q.Sources, len(res.Successors), len(nodes))
				}
				for _, v := range nodes {
					if got := sorted(res.Successors[v]); !slices.Equal(got, want(v)) {
						t.Fatalf("%s sources %v: node %d reaches %v, graph.Reachable says %v", alg, q.Sources, v, got, want(v))
					}
				}
			}
		}
	})
}
