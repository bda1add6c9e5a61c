package graph

import (
	"fmt"
	"slices"

	"tcstudy/internal/bitset"
)

// Condensation support. The paper restricts its study to acyclic graphs on
// the standard ground (Section 1) that a cyclic graph's strongly connected
// components can be merged cheaply into an acyclic condensation graph
// before closure computation. This file supplies that preprocessing so the
// library handles arbitrary directed graphs end to end.

// Components is the strongly-connected-component partition of a directed
// graph, and the one owner of what a component expands to.
type Components struct {
	// Component[v] is the component of node v (index 0 unused), numbered
	// 1..K in reverse topological order: for an arc u→v across components,
	// Component[v] < Component[u].
	Component []int32
	// Cyclic[c] reports whether the nodes of component c reach themselves:
	// it has more than one member, or its one member carries a self-arc
	// (index 0 unused).
	Cyclic []bool
}

// K reports the number of components.
func (c Components) K() int { return len(c.Cyclic) - 1 }

// Expand translates one row of a closure over components back to nodes:
// reached holds one bit per component (bit c of word c/64), set for the
// components src's component reaches in the acyclic condensation. The
// result is every member of a reached component plus, when it is cyclic,
// of src's own — ascending and duplicate-free, because it is produced by
// one walk over the node ids.
func (c Components) Expand(src int32, reached []uint64) []int32 {
	cu := c.Component[src]
	var out []int32
	for v := int32(1); v < int32(len(c.Component)); v++ {
		cv := c.Component[v]
		hit := reached[cv>>6]&(1<<uint(cv&63)) != 0
		if cv == cu {
			hit = c.Cyclic[cu]
		}
		if hit {
			out = append(out, v)
		}
	}
	return out
}

// Condensation maps a directed graph onto its DAG of strongly connected
// components.
type Condensation struct {
	Components
	// DAG is the condensation graph; its nodes are component numbers 1..K.
	DAG *Graph
	// Members[c] lists the original nodes of component c (index 0 unused).
	Members [][]int32
}

// SCC computes the strongly connected components over nodes 1..n directly
// from an arc list, without materializing a Graph (no per-node sorting or
// deduplication — duplicate arcs and self-arcs are harmless). Arcs
// mentioning nodes outside 1..n cause a panic, as in New.
func SCC(n int, arcs []Arc) Components {
	// Compact CSR adjacency: one counting pass, one fill pass.
	off := make([]int32, n+2)
	for _, a := range arcs {
		if a.From < 1 || a.From > int32(n) || a.To < 1 || a.To > int32(n) {
			panic(fmt.Sprintf("graph: arc (%d,%d) outside 1..%d", a.From, a.To, n))
		}
		off[a.From+1]++
	}
	for v := 1; v <= n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]int32, len(arcs))
	cur := make([]int32, n+1)
	for _, a := range arcs {
		flat[off[a.From]+cur[a.From]] = a.To
		cur[a.From]++
	}
	comp := make([]int32, n+1)
	cyclic := []bool{false} // index 0 unused
	// Children read from memory cannot fail, so neither can the walk.
	_, _ = Walk(n, allNodes(n),
		func(v int32) ([]int32, error) { return flat[off[v]:off[v+1]], nil },
		func(members []int32, cyc bool) {
			for _, w := range members {
				comp[w] = int32(len(cyclic))
			}
			cyclic = append(cyclic, cyc)
		})
	return Components{Component: comp, Cyclic: cyclic}
}

// IsDAG reports whether the arcs over nodes 1..n form an acyclic graph.
// An arc list that only ever points from a smaller to a larger id — every
// generated study graph — is decided in one pass; anything else by SCC.
func IsDAG(n int, arcs []Arc) bool {
	forward := true
	for _, a := range arcs {
		if a.From >= a.To {
			forward = false
			break
		}
	}
	return forward || !slices.Contains(SCC(n, arcs).Cyclic, true)
}

// Condense computes the strongly connected components of g with Tarjan's
// algorithm (iterative, so recursion depth is not a limit) and returns the
// condensation. Components are numbered in reverse topological discovery
// order and the returned DAG is acyclic by construction; self-arcs and
// duplicate inter-component arcs are dropped.
func (g *Graph) Condense() *Condensation {
	arcs := g.Arcs()
	c := &Condensation{Components: SCC(g.n, arcs)}
	comp := c.Component
	c.Members = make([][]int32, c.K()+1)
	for v := int32(1); v <= int32(g.n); v++ {
		c.Members[comp[v]] = append(c.Members[comp[v]], v)
	}
	dag := arcs[:0] // filtered in place: SCC kept no reference to arcs
	for _, a := range arcs {
		if comp[a.From] != comp[a.To] {
			dag = append(dag, Arc{comp[a.From], comp[a.To]})
		}
	}
	c.DAG = New(c.K(), dag)
	return c
}

// ExpandClosure translates a closure over condensation components back to
// the original node space (see Expand). succ is the DAG closure as returned
// by Closure on the condensation DAG; the result maps each original node to
// its successors, ascending.
func (c *Condensation) ExpandClosure(succ []*bitset.Set) [][]int32 {
	out := make([][]int32, len(c.Component))
	for u := int32(1); u < int32(len(c.Component)); u++ {
		out[u] = c.Expand(u, succ[c.Component[u]].Words())
	}
	return out
}
