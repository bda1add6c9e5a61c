package graph

import "slices"

// Walk is the one depth-first traversal of the repository: Tarjan's
// strongly-connected-components walk, iterative so that a graph as deep as
// it has nodes cannot overflow the goroutine stack. TopoSort, SCC and
// Condense run it over in-memory adjacency; the engine's restructuring
// phase and Schmitz's algorithm run it over relation probes.
//
// The nodes are 1..n and the walk starts from each root in turn, skipping
// one already visited. children(v) supplies node v's successors and is
// called exactly once per reached node, on first visit, in DFS preorder —
// so a children that reads pages charges them in visiting order. The slice
// it returns must stay unchanged until the walk returns. An error from
// children ends the walk and is returned as is.
//
// Components are reported to pop (which may be nil) as they complete, which
// is in reverse topological order of the condensation: every component a
// popped one reaches has popped before it. members is the component in
// visiting order, valid only during the call; cyclic reports whether its
// nodes reach themselves — more than one member, or a self-arc.
//
// finish is the reached nodes in DFS postorder. On an acyclic graph its
// reverse is a topological order.
func Walk(n int, roots []int32, children func(v int32) ([]int32, error), pop func(members []int32, cyclic bool)) (finish []int32, err error) {
	type frame struct {
		node int32
		kids []int32
		next int
	}
	var (
		index   = make([]int32, n+1) // 0 = unvisited; else 1 + preorder number
		low     = make([]int32, n+1)
		onOpen  = make([]bool, n+1)
		open    []int32 // visited nodes whose component has not popped yet
		stack   []frame
		counter int32
	)
	finish = make([]int32, 0, n)
	visit := func(v int32) error {
		counter++
		index[v], low[v] = counter, counter
		kids, err := children(v)
		if err != nil {
			return err
		}
		open = append(open, v)
		onOpen[v] = true
		stack = append(stack, frame{node: v, kids: kids})
		return nil
	}
	for _, r := range roots {
		if index[r] != 0 {
			continue
		}
		if err := visit(r); err != nil {
			return nil, err
		}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.node
			if f.next < len(f.kids) {
				c := f.kids[f.next]
				f.next++
				if index[c] == 0 {
					if err := visit(c); err != nil {
						return nil, err
					}
				} else if onOpen[c] && index[c] < low[v] {
					low[v] = index[c]
				}
				continue
			}
			if low[v] == index[v] {
				// v is the first-visited node of a complete component:
				// everything opened since belongs to it.
				at := len(open) - 1
				for open[at] != v {
					at--
				}
				members := open[at:]
				for _, w := range members {
					onOpen[w] = false
				}
				if pop != nil {
					pop(members, len(members) > 1 || slices.Contains(f.kids, v))
				}
				open = open[:at]
			}
			finish = append(finish, v)
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				if p := stack[len(stack)-1].node; low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return finish, nil
}

// allNodes lists 1..n, the roots of a walk over a whole graph.
func allNodes(n int) []int32 {
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i + 1)
	}
	return nodes
}
