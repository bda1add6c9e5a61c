package core

import (
	"slices"
	"sort"

	"tcstudy/internal/bitset"
	"tcstudy/internal/slist"
)

// Schmitz's algorithm ([23] in the paper; one of the graph-based
// algorithms Ioannidis et al. [12] compared BTC against): a single Tarjan
// depth-first search — the restructuring walk every list algorithm runs
// (restructure.go), here with its components kept — finds the strongly
// connected components, and they are closed in the order they popped, so
// cyclic graphs are handled natively — no separate condensation pass.
// Components pop in reverse topological order of the condensation, so each
// popped component can union the *complete* closed successor sets of its
// external children, with the marking optimization applying at the
// component level.
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

	// ---- Phase 1 (restructuring): the engine's walk, components kept ----
	var (
		adj     [][]int32
		comp    = make([]int32, n+1) // node -> index into members
		members [][]int32            // in pop (reverse topological) order
		cyclic  []bool               // per component: more than one member or self-loop
	)
	if err := e.timedPhase(true, func() error {
		var finish []int32
		var err error
		adj, finish, err = e.walk(func(ms []int32, cyc bool) {
			for _, w := range ms {
				comp[w] = int32(len(members))
			}
			members = append(members, slices.Clone(ms))
			cyclic = append(cyclic, cyc)
		})
		e.met.MagicNodes = int64(len(finish))
		return err
	}); err != nil {
		return err
	}

	// ---- Phase 2 (computation): close components in pop order ----------
	store := e.newStore("component-lists", len(members)+1)
	e.store = store

	// The answer for node x is its component's list.
	nodes := e.sources()
	lists := make([]int32, len(nodes))
	for i, x := range nodes {
		lists[i] = comp[x]
	}

	if err := e.timedPhase(false, func() error {
		member := bitset.New(n + 1)   // nodes in the list being built
		childSet := bitset.New(n + 1) // external child nodes of the component
		marked := bitset.New(n + 1)
		var appendBuf, external []int32
		var it slist.Iterator // reused across the child unions

		for i, ms := range members {
			id := int32(i)
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
				for _, m := range ms {
					e.met.TuplesGenerated++
					add(m)
				}
			}
			// Distinct external children, ordered by component pop index
			// descending (nearest components first) then node id, so
			// marking mirrors BTC's topological child order.
			external = external[:0]
			for _, m := range ms {
				for _, c := range adj[m] {
					if comp[c] == id {
						continue // internal arc
					}
					if !childSet.TestAndAdd(c) {
						external = append(external, c)
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
					blk, ok := it.NextBlock()
					if !ok {
						break
					}
					e.met.SuccessorsFetched += int64(len(blk))
					e.met.TuplesGenerated += int64(len(blk))
					for _, u := range blk {
						if childSet.Has(u) {
							marked.Add(u)
						}
						add(u)
					}
				}
				it.Close()
				if err := it.Err(); err != nil {
					return err
				}
			}
			if err := store.AppendAll(id, appendBuf); err != nil {
				return err
			}
			e.met.DistinctTuples += int64(len(appendBuf)) * int64(len(ms))
		}

		return e.writeOut(store, lists, func(id int32) int64 { return int64(store.Len(id)) })
	}); err != nil {
		return err
	}
	return e.collectAnswer(store, nodes, lists)
}
