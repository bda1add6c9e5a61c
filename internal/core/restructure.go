package core

import (
	"slices"
	"sort"

	"tcstudy/internal/bitset"
	"tcstudy/internal/graph"
	"tcstudy/internal/slist"
)

// The restructuring phase (Section 4): starting from the query's source
// nodes (or every node for CTC), the relation is walked through its
// clustered index, the magic subgraph is identified, the nodes are
// topologically sorted, node levels (and with them the rectangle model,
// Theorem 2) are computed, and the tuples are converted into successor
// lists laid out in processing order. The I/O this performs — index probes
// into the relation plus successor-list page writes — is the phase's cost.

// probeRel reads node v's tuples through the configured access path: the
// paper's free in-memory sparse index by default, or the disk-resident
// B+-tree with its interior pages charged (Config.ChargeIndexIO).
func (e *engine) probeRel(v int32, fn func(int32) bool) (int, error) {
	if e.cfg.ChargeIndexIO {
		return e.db.rel.ProbeIndexed(e.pool, e.db.btree, v, fn)
	}
	return e.db.rel.Probe(e.pool, v, fn)
}

// probeInv is probeRel over the destination-clustered dual representation.
func (e *engine) probeInv(v int32, fn func(int32) bool) (int, error) {
	if e.cfg.ChargeIndexIO {
		return e.db.inv.ProbeIndexed(e.pool, e.db.invBtree, v, fn)
	}
	return e.db.inv.Probe(e.pool, v, fn)
}

// children reads node v's immediate successors from the relation, appending
// them to buf.
func (e *engine) children(v int32, buf []int32) ([]int32, error) {
	_, err := e.probeRel(v, func(c int32) bool {
		buf = append(buf, c)
		return true
	})
	return buf, err
}

// newStore creates a successor-list store of the given capacity on the
// run's pool, under the run's list replacement policy and clustering
// setting.
func (e *engine) newStore(name string, lists int) *slist.Store {
	s := slist.NewStore(e.pool, name, lists, e.listPolicy)
	if e.cfg.DisableClustering {
		s.SetClustering(false)
	}
	return s
}

// walk is the traversal of the restructuring phase: graph.Walk from the
// query's sources with each node's children probed from the relation on
// first visit (with their weights into e.adjW when needWeights is set). It
// fills e.isSource and returns the magic graph's adjacency (children per
// node; nil for nodes outside it) and its nodes in DFS postorder; pop
// receives the strongly connected components as they complete.
func (e *engine) walk(pop func(members []int32, cyclic bool)) (adj [][]int32, finish []int32, err error) {
	n := e.db.n
	adj = make([][]int32, n+1)
	if e.needWeights {
		e.adjW = make([][]int32, n+1)
	}
	e.isSource = make([]bool, n+1)
	for _, s := range e.q.Sources {
		e.isSource[s] = true
	}
	finish, err = graph.Walk(n, e.sources(), func(v int32) (_ []int32, err error) {
		if e.needWeights {
			_, err = e.db.rel.ProbeWeighted(e.pool, v, e.db.wcol, func(c, w int32) bool {
				adj[v] = append(adj[v], c)
				e.adjW[v] = append(e.adjW[v], w)
				return true
			})
		} else {
			adj[v], err = e.children(v, nil)
		}
		return adj[v], err
	}, pop)
	return adj, finish, err
}

// discover walks the magic graph of an acyclic input and derives from the
// postorder what the list algorithms need: e.order (the topological order,
// its reverse), e.topoPos, e.levels and the rectangle model. It returns the
// magic graph's adjacency.
func (e *engine) discover() ([][]int32, error) {
	adj, finish, err := e.walk(nil)
	if err != nil {
		return nil, err
	}
	e.levels = make([]int32, e.db.n+1)
	e.topoPos = make([]int32, e.db.n+1)
	for i := range e.topoPos {
		e.topoPos[i] = -1
	}
	// A node finishes after its children, so their levels are known: one
	// more than the deepest. The rectangle model of the magic graph falls
	// out of the same pass for free (Theorem 2): H is the mean node level,
	// W = |G_m| / H.
	var levelSum, arcs int64
	for i, v := range finish {
		var best int32
		for _, c := range adj[v] {
			best = max(best, e.levels[c])
		}
		e.levels[v] = best + 1
		e.topoPos[v] = int32(len(finish) - 1 - i)
		levelSum += int64(best + 1)
		arcs += int64(len(adj[v]))
	}
	slices.Reverse(finish)
	e.order = finish
	e.met.MagicNodes = int64(len(e.order))
	e.met.MagicArcs = arcs
	if e.met.MagicNodes > 0 {
		e.met.MagicH = float64(levelSum) / float64(e.met.MagicNodes)
		if e.met.MagicH > 0 {
			e.met.MagicW = float64(arcs) / e.met.MagicH
		}
	}
	return adj, nil
}

// buildLists converts the adjacency into successor lists on disk. Lists are
// written in reverse topological order — the order the computation phase
// expands them — which gives the inter-list clustering of Section 4, and
// each node's children are sorted by topological position so the marking
// optimization achieves the transitive reduction (Section 3.1).
//
// The layout decides what a list holds (see listLayout): the children
// alone; an initial successor tree — the children under a single group
// whose parent marker is the (negated) node itself (Section 4.1: "successor
// spanning trees are represented by storing each parent once, followed by a
// list of its children; parent nodes are distinguished by negating their
// values"); or (child, weight) pairs, the weights read from adjW.
func (e *engine) buildLists(adj [][]int32, layout listLayout) error {
	e.store = e.newStore("successor-lists", e.db.n+1)
	e.childCount = make([]int32, e.db.n+1)
	var rank []int // positions in adj[v], by the child's topological position
	buf := make([]int32, 0, 64)
	for i := len(e.order) - 1; i >= 0; i-- {
		v := e.order[i]
		kids := adj[v]
		rank = rank[:0]
		for k := range kids {
			rank = append(rank, k)
		}
		sort.Slice(rank, func(a, b int) bool { return e.topoPos[kids[rank[a]]] < e.topoPos[kids[rank[b]]] })
		e.childCount[v] = int32(len(kids))
		buf = buf[:0]
		if layout == treeLists {
			buf = append(buf, -v)
		}
		for _, k := range rank {
			buf = append(buf, kids[k])
			if layout == weightedLists {
				buf = append(buf, e.adjW[v][k])
			}
		}
		if err := e.store.AppendAll(v, buf); err != nil {
			return err
		}
	}
	return nil
}

// singleParentReduce applies Jiang's single-parent optimization (Section
// 3.3): a non-source node of the magic graph with exactly one parent is
// reduced to a sink, its children adopted by the parent. Reductions are
// applied in topological order so chains of single-parent nodes collapse
// in one pass. The returned adjacency replaces the input.
func (e *engine) singleParentReduce(adj [][]int32) [][]int32 {
	n := e.db.n
	parents := make([]int32, n+1) // in-degree within the magic graph
	for _, v := range e.order {
		for _, c := range adj[v] {
			parents[c]++
		}
	}
	// soleParent keeps the last recorded parent; it is only consulted for
	// nodes whose in-degree is exactly 1, where it is exact.
	soleParent := make([]int32, n+1)
	for _, v := range e.order {
		for _, c := range adj[v] {
			soleParent[c] = v
		}
	}
	reduced := make([]bool, n+1)
	have := bitset.New(n + 1)   // mergeAdopted's scratch, empty between calls
	for _, v := range e.order { // topological order: parents before children
		if e.isSource[v] || parents[v] != 1 {
			continue
		}
		p := soleParent[v]
		if reduced[v] || p == 0 {
			continue
		}
		// Adopt v's children into p, then make v a sink. The adopted
		// children keep v as a second potential parent only on paper; the
		// arc (v, c) is deleted, so their in-degree is unchanged and the
		// sole parent becomes p.
		for _, c := range adj[v] {
			soleParent[c] = p
		}
		adj[p] = mergeAdopted(adj[p], adj[v], have)
		adj[v] = nil
		reduced[v] = true
	}
	return adj
}

// mergeAdopted appends the orphaned children to the parent's child list,
// dropping duplicates (the arc parent -> reduced stays: the reduced node
// is still a successor, now a sink). have is an empty scratch set, left
// empty on return.
func mergeAdopted(parent, adopted []int32, have *bitset.Set) []int32 {
	for _, c := range parent {
		have.Add(c)
	}
	for _, c := range adopted {
		if !have.TestAndAdd(c) {
			parent = append(parent, c)
		}
	}
	for _, c := range parent {
		have.Remove(c)
	}
	return parent
}

// buildPredLists builds the immediate-predecessor lists of the magic graph
// needed by Compute_Tree (Section 3.6). Predecessors are appended in
// descending topological position so the nearest predecessors are
// processed first.
//
// With dual=false (JKB) only the source-clustered relation exists, so the
// magic graph's tuple pages are probed a second time and each arc is routed
// to its head's predecessor list — appends interleave across many lists,
// which is exactly the expensive pattern the paper observed for high
// out-degrees. With dual=true (JKB2) the destination-clustered inverse
// relation is probed once per magic node, appending each list in full
// (Section 4.1: roughly twice the restructuring cost of BTC).
func (e *engine) buildPredLists(dual bool) (*slist.Store, error) {
	preds := e.newStore("predecessor-lists", e.db.n+1)
	if dual {
		// One probe of the inverse relation per magic node, filtered to
		// magic-graph predecessors, appended in one run per list.
		var buf []int32
		for i := len(e.order) - 1; i >= 0; i-- {
			v := e.order[i]
			buf = buf[:0]
			_, err := e.probeInv(v, func(p int32) bool {
				if e.topoPos[p] >= 0 {
					buf = append(buf, p)
				}
				return true
			})
			if err != nil {
				return nil, err
			}
			sort.Slice(buf, func(a, b int) bool { return e.topoPos[buf[a]] > e.topoPos[buf[b]] })
			if err := preds.AppendAll(v, buf); err != nil {
				return nil, err
			}
		}
		return preds, nil
	}
	// Single-relation variant: re-probe each magic node's tuples in
	// reverse topological order and scatter the arcs to the heads'
	// predecessor lists.
	var children []int32
	for i := len(e.order) - 1; i >= 0; i-- {
		v := e.order[i]
		var err error
		if children, err = e.children(v, children[:0]); err != nil {
			return nil, err
		}
		for _, c := range children {
			if e.topoPos[c] < 0 {
				continue
			}
			if err := preds.Append(c, v); err != nil {
				return nil, err
			}
		}
	}
	return preds, nil
}
