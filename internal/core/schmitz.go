package core

import (
	"sort"

	"tcstudy/internal/bitset"
	"tcstudy/internal/slist"
)

// Schmitz's algorithm ([23] in the paper; one of the graph-based
// algorithms Ioannidis et al. [12] compared BTC against): a single Tarjan
// depth-first search computes strongly connected components and closes
// them as they pop, so cyclic graphs are handled natively — no separate
// condensation pass. Components pop in reverse topological order of the
// condensation, so each popped component can union the *complete* closed
// successor sets of its external children, with the marking optimization
// applying at the component level.
//
// One successor list is kept per component, holding the component's
// closed successor set S'(C): every node reachable from C's members,
// including the members themselves when the component is cyclic (a node
// in a cycle reaches itself). The answer for node x is S'(comp(x)).
//
// The paper restricts its own study to DAGs (where Schmitz degenerates to
// a BTC-like pass over singleton components, and [12] found BTC better);
// this implementation exists so the library computes cyclic closures
// end-to-end with full I/O accounting, and so the condensation-pipeline
// alternative can be measured against it.
func (e *engine) runSchmitz() error {
	n := e.db.n

	// ---- Phase 1 (restructuring): Tarjan DFS over relation probes ------
	var (
		adj     = make([][]int32, n+1)
		index   = make([]int32, n+1) // 0 = unvisited
		lowlink = make([]int32, n+1)
		onStack = make([]bool, n+1)
		comp    = make([]int32, n+1)
		cyclic  []bool // per component: more than one member or self-loop
		members [][]int32
		tstack  []int32
		next    int32 = 1
	)
	e.isSource = make([]bool, n+1)
	for _, s := range e.q.Sources {
		e.isSource[s] = true
	}

	var popOrder []int32 // component ids in pop (reverse topological) order

	if err := e.timedPhase(true, func() error {
		probe := func(v int32) error {
			var children []int32
			_, err := e.probeRel(v, func(c int32) bool {
				children = append(children, c)
				return true
			})
			adj[v] = children
			return err
		}
		type frame struct {
			node  int32
			child int
		}
		var stack []frame
		visit := func(root int32) error {
			if index[root] != 0 {
				return nil
			}
			index[root], lowlink[root] = next, next
			next++
			if err := probe(root); err != nil {
				return err
			}
			tstack = append(tstack, root)
			onStack[root] = true
			stack = append(stack, frame{node: root})
			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				v := f.node
				if f.child < len(adj[v]) {
					c := adj[v][f.child]
					f.child++
					if index[c] == 0 {
						index[c], lowlink[c] = next, next
						next++
						if err := probe(c); err != nil {
							return err
						}
						tstack = append(tstack, c)
						onStack[c] = true
						stack = append(stack, frame{node: c})
					} else if onStack[c] && index[c] < lowlink[v] {
						lowlink[v] = index[c]
					}
					continue
				}
				if lowlink[v] == index[v] {
					// Pop a complete component.
					id := int32(len(members))
					var ms []int32
					for {
						w := tstack[len(tstack)-1]
						tstack = tstack[:len(tstack)-1]
						onStack[w] = false
						comp[w] = id
						ms = append(ms, w)
						if w == v {
							break
						}
					}
					selfLoop := false
					if len(ms) == 1 {
						for _, c := range adj[ms[0]] {
							if c == ms[0] {
								selfLoop = true
							}
						}
					}
					members = append(members, ms)
					cyclic = append(cyclic, len(ms) > 1 || selfLoop)
					popOrder = append(popOrder, id)
				}
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := stack[len(stack)-1].node
					if lowlink[v] < lowlink[p] {
						lowlink[p] = lowlink[v]
					}
				}
			}
			return nil
		}
		var roots []int32
		if e.q.IsFull() {
			roots = make([]int32, n)
			for i := range roots {
				roots[i] = int32(i + 1)
			}
		} else {
			roots = e.q.Sources
		}
		for _, r := range roots {
			if err := visit(r); err != nil {
				return err
			}
		}
		e.met.MagicNodes = 0
		for _, ms := range members {
			e.met.MagicNodes += int64(len(ms))
		}
		return nil
	}); err != nil {
		return err
	}

	// ---- Phase 2 (computation): close components in pop order ----------
	store := slist.NewStore(e.pool, "component-lists", len(members)+1, e.listPolicy)
	if e.cfg.DisableClustering {
		store.SetClustering(false)
	}
	e.store = store

	// The answer for node x is its component's list.
	nodes := e.q.Sources
	if e.q.IsFull() {
		nodes = nil
		for _, ms := range members {
			nodes = append(nodes, ms...)
		}
	}
	lists := make([]int32, len(nodes))
	for i, x := range nodes {
		lists[i] = comp[x]
	}

	if err := e.timedPhase(false, func() error {
		member := bitset.New(n + 1)   // nodes in the list being built
		childSet := bitset.New(n + 1) // external child nodes of the component
		marked := bitset.New(n + 1)
		var appendBuf []int32

		for _, id := range popOrder {
			member.Clear()
			childSet.Clear()
			marked.Clear()
			appendBuf = appendBuf[:0]
			add := func(u int32) {
				if !member.TestAndAdd(u) {
					appendBuf = append(appendBuf, u)
				} else {
					e.met.Duplicates++
				}
			}
			// A cyclic component's members reach themselves.
			if cyclic[id] {
				for _, m := range members[id] {
					e.met.TuplesGenerated++
					add(m)
				}
			}
			// Distinct external children, ordered by component pop index
			// descending (nearest components first) then node id, so
			// marking mirrors BTC's topological child order.
			var external []int32
			seen := bitset.New(n + 1)
			for _, m := range members[id] {
				for _, c := range adj[m] {
					if comp[c] == id {
						continue // internal arc
					}
					if !seen.TestAndAdd(c) {
						external = append(external, c)
						childSet.Add(c)
					}
				}
			}
			sort.Slice(external, func(a, b int) bool {
				ca, cb := comp[external[a]], comp[external[b]]
				if ca != cb {
					return ca > cb
				}
				return external[a] < external[b]
			})
			var it slist.Iterator // reused across the child unions
			for _, c := range external {
				e.met.ArcsConsidered++
				if !e.cfg.DisableMarking && marked.Has(c) {
					e.met.ArcsMarked++
					continue
				}
				e.met.ListUnions++
				e.met.TuplesGenerated++
				add(c)
				it.Reset(store, comp[c])
				for {
					u, ok := it.Next()
					if !ok {
						break
					}
					e.met.SuccessorsFetched++
					e.met.TuplesGenerated++
					if childSet.Has(u) {
						marked.Add(u)
					}
					add(u)
				}
				it.Close()
				if err := it.Err(); err != nil {
					return err
				}
			}
			if err := store.AppendAll(id, appendBuf); err != nil {
				return err
			}
			e.met.DistinctTuples += int64(len(appendBuf)) * int64(len(members[id]))
		}

		return e.writeOut(store, lists, func(id int32) int64 { return int64(store.Len(id)) })
	}); err != nil {
		return err
	}
	return e.collectAnswer(store, nodes, lists)
}
