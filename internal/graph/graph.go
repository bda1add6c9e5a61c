// Package graph provides the in-memory graph model and analytics of the
// study: topological sorting, node levels and arc locality, transitive
// reduction, the rectangle model (height and width) of Section 5.3, a
// reference transitive closure used to validate the disk-based algorithms,
// and strongly-connected-component condensation (the standard preprocessing
// for cyclic inputs the paper cites in its introduction).
//
// Nodes are numbered 1..N; 0 is never a node.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tcstudy/internal/bitset"
)

// Arc is a directed edge.
type Arc struct {
	From, To int32
}

// Graph is an immutable in-memory directed graph in adjacency-list form.
// Children lists are sorted ascending and free of duplicates.
type Graph struct {
	n   int
	adj [][]int32
}

// New builds a graph over nodes 1..n from arcs, sorting children and
// removing duplicate arcs (the paper's generator eliminates duplicates).
// Arcs mentioning nodes outside 1..n cause a panic: they indicate a bug in
// the caller, not an input condition.
func New(n int, arcs []Arc) *Graph {
	g := &Graph{n: n, adj: make([][]int32, n+1)}
	for _, a := range arcs {
		if a.From < 1 || a.From > int32(n) || a.To < 1 || a.To > int32(n) {
			panic(fmt.Sprintf("graph: arc (%d,%d) outside 1..%d", a.From, a.To, n))
		}
		g.adj[a.From] = append(g.adj[a.From], a.To)
	}
	for i := 1; i <= n; i++ {
		ch := g.adj[i]
		sort.Slice(ch, func(a, b int) bool { return ch[a] < ch[b] })
		out := ch[:0]
		for j, c := range ch {
			if j == 0 || c != ch[j-1] {
				out = append(out, c)
			}
		}
		g.adj[i] = out
	}
	return g
}

// ReadArcs parses an arc file: one "src dst" pair of positive node ids per
// line (the tcgen -dump format), blank lines and lines starting with #
// skipped. It returns the arcs and the largest node id mentioned, which is
// the node count of the graph they describe.
func ReadArcs(r io.Reader) (arcs []Arc, nodes int, err error) {
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			return nil, 0, fmt.Errorf("line %d: want \"src dst\", got %q", line, sc.Text())
		}
		from, err1 := strconv.ParseInt(fields[0], 10, 32)
		to, err2 := strconv.ParseInt(fields[1], 10, 32)
		if err1 != nil || err2 != nil || from < 1 || to < 1 {
			return nil, 0, fmt.Errorf("line %d: bad arc %q", line, sc.Text())
		}
		nodes = max(nodes, int(from), int(to))
		arcs = append(arcs, Arc{From: int32(from), To: int32(to)})
	}
	return arcs, nodes, sc.Err()
}

// ReadArcFile is ReadArcs over the named file, which its errors name.
func ReadArcFile(path string) ([]Arc, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	arcs, nodes, err := ReadArcs(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return arcs, nodes, nil
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// Children returns the sorted immediate successors of node i. The slice is
// shared; callers must not modify it.
func (g *Graph) Children(i int32) []int32 { return g.adj[i] }

// NumArcs reports the number of (distinct) arcs.
func (g *Graph) NumArcs() int {
	n := 0
	for i := 1; i <= g.n; i++ {
		n += len(g.adj[i])
	}
	return n
}

// Arcs returns all arcs in (From, To) order.
func (g *Graph) Arcs() []Arc {
	out := make([]Arc, 0, g.NumArcs())
	for i := int32(1); i <= int32(g.n); i++ {
		for _, c := range g.adj[i] {
			out = append(out, Arc{i, c})
		}
	}
	return out
}

// Reverse returns the arc-reversed graph.
func (g *Graph) Reverse() *Graph {
	arcs := g.Arcs()
	for i := range arcs {
		arcs[i].From, arcs[i].To = arcs[i].To, arcs[i].From
	}
	return New(g.n, arcs)
}

// ErrCyclic is reported by TopoSort on cyclic input.
type ErrCyclic struct{ Node int32 }

func (e ErrCyclic) Error() string {
	return fmt.Sprintf("graph: cycle through node %d", e.Node)
}

// TopoSort returns the nodes in a topological order (every arc goes from an
// earlier to a later position). It fails with ErrCyclic, naming a node that
// lies on a cycle, on cyclic graphs. The order is the reverse DFS postorder,
// the order the restructuring phase produces (Section 4).
func (g *Graph) TopoSort() ([]int32, error) {
	var onCycle int32
	// Children read from memory cannot fail, so neither can the walk.
	order, _ := Walk(g.n, allNodes(g.n),
		func(v int32) ([]int32, error) { return g.adj[v], nil },
		func(members []int32, cyclic bool) {
			if cyclic && onCycle == 0 {
				onCycle = members[0]
			}
		})
	if onCycle != 0 {
		return nil, ErrCyclic{Node: onCycle}
	}
	slices.Reverse(order)
	return order, nil
}

// Levels computes the node level of every node per Section 5.3:
// level(i) = 1 for sinks, else 1 + max over children of level(child).
// The graph must be acyclic. Index 0 of the result is unused.
func (g *Graph) Levels() ([]int32, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make([]int32, g.n+1)
	// Walk in reverse topological order so children are leveled first.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := int32(0)
		for _, c := range g.adj[v] {
			if level[c] > best {
				best = level[c]
			}
		}
		level[v] = best + 1
	}
	return level, nil
}

// Closure computes the reference transitive closure as per-node successor
// bitsets. Used for validation and for Table 2's |TC(G)| column.
func (g *Graph) Closure() ([]*bitset.Set, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	succ := make([]*bitset.Set, g.n+1)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		s := bitset.New(g.n + 1)
		for _, c := range g.adj[v] {
			s.Add(c)
			s.Or(succ[c])
		}
		succ[v] = s
	}
	return succ, nil
}

// ClosureSize reports the number of tuples in the transitive closure.
func (g *Graph) ClosureSize() (int64, error) {
	succ, err := g.Closure()
	if err != nil {
		return 0, err
	}
	var n int64
	for i := 1; i <= g.n; i++ {
		n += int64(succ[i].Count())
	}
	return n, nil
}

// ClosureGraph materializes the transitive closure as a graph.
func (g *Graph) ClosureGraph() (*Graph, error) {
	succ, err := g.Closure()
	if err != nil {
		return nil, err
	}
	var arcs []Arc
	for i := int32(1); i <= int32(g.n); i++ {
		succ[i].ForEach(func(v int32) { arcs = append(arcs, Arc{i, v}) })
	}
	return New(g.n, arcs), nil
}

// Reduction computes the transitive reduction: the unique minimal subgraph
// of an acyclic G with the same closure (Section 5.3, citing Aho et al.).
// It returns the reduction and a redundancy predicate over arcs.
func (g *Graph) Reduction() (*Graph, func(Arc) bool, error) {
	succ, err := g.Closure()
	if err != nil {
		return nil, nil, err
	}
	// Arc (i,j) is redundant iff some other child c of i reaches j.
	redundant := func(a Arc) bool {
		for _, c := range g.adj[a.From] {
			if c != a.To && succ[c].Has(a.To) {
				return true
			}
		}
		return false
	}
	var arcs []Arc
	for _, a := range g.Arcs() {
		if !redundant(a) {
			arcs = append(arcs, a)
		}
	}
	return New(g.n, arcs), redundant, nil
}

// Reachable reports the nodes reachable from the sources (excluding the
// sources themselves unless re-reached).
func (g *Graph) Reachable(sources []int32) *bitset.Set {
	reach := bitset.New(g.n + 1)
	var stack []int32
	for _, s := range sources {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.adj[v] {
			if !reach.TestAndAdd(c) {
				stack = append(stack, c)
			}
		}
	}
	return reach
}
