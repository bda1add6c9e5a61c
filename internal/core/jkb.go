package core

import (
	"slices"

	"tcstudy/internal/slist"
)

// Jakobsson's Compute_Tree algorithm (Sections 3.6, 4.1 and 6.3):
// the magic graph is processed in forward topological order over
// *immediate predecessor* lists, maintaining for each node x a predecessor
// tree that contains only the nodes special with respect to x — source
// nodes, and nodes where paths from unrelated sources first meet — so each
// tree holds at most about 2|S| nodes. When a source s appears in the tree
// of x, the answer tuple (s, x) is produced and appended to s's output
// list.
//
// The marking analogue (skip a parent already present in the tree being
// built) almost never applies, because a parent appears in the tree only if
// it is itself special; the paper identifies this poor marking utilization,
// and the resulting excess of unions over low-locality arcs, as the
// algorithm's weakness on wide graphs (Sections 6.3.3–6.3.4).
//
// Trees are stored as (node, parent) pairs in parent-before-child order;
// a parent value of zero marks a root.
//
// JKB builds the predecessor lists from the source-clustered relation
// alone; JKB2 probes the dual destination-clustered relation
// (see buildPredLists). Everything after that is identical.
func (e *engine) runJKB(dual bool) error {
	var preds *slist.Store
	if err := e.timedPhase(true, func() error {
		// discover() identifies the magic graph; Compute_Tree needs no
		// successor lists, only the predecessor lists built below.
		if _, err := e.discover(); err != nil {
			return err
		}
		// Compute_Tree treats a full closure as a selection with S = all
		// nodes: every node is then special and the trees grow to the
		// full predecessor sets, which is why the paper finds it
		// uncompetitive for CTC (Figure 7).
		if e.q.IsFull() {
			for v := 1; v <= e.db.n; v++ {
				e.isSource[v] = true
			}
		}
		var err error
		preds, err = e.buildPredLists(dual)
		return err
	}); err != nil {
		return err
	}

	trees := e.newStore("predecessor-trees", e.db.n+1)
	e.store = trees

	if err := e.timedPhase(false, func() error {
		return e.computeTrees(preds, trees)
	}); err != nil {
		return err
	}

	// Extract the answer from the stored trees after measurement ends:
	// (s, x) holds for every source s in the tree of x. The trees are the
	// algorithm's materialized result (the paper notes their "extra parent
	// information" as JKB's residual overhead at s = n, Section 6.3.6).
	e.answer = make(map[int32][]int32)
	for _, s := range e.q.Sources {
		e.answer[s] = nil
	}
	if e.q.IsFull() {
		for _, x := range e.order {
			e.answer[x] = nil
		}
	}
	for _, x := range e.order {
		pairs, err := trees.ReadAll(x)
		if err != nil {
			return err
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			u := pairs[i]
			if e.isSource[u] && u != x {
				e.answer[u] = append(e.answer[u], x)
			}
		}
	}
	return nil
}

// treeNode is one entry of an in-memory predecessor tree under
// construction.
type treeNode struct {
	node   int32
	parent int32 // 0 for roots
}

func (e *engine) computeTrees(preds, trees *slist.Store) error {
	n := e.db.n
	// rootCount[v] is the number of roots of v's finalized tree; a node is
	// special if it is a source or its tree has at least two roots (paths
	// from unrelated sources meet there).
	rootCount := make([]int32, n+1)
	special := func(v int32) bool { return e.isSource[v] || rootCount[v] >= 2 }

	// The tree under construction and the pruning pass's keep set are
	// stamped with x's epoch instead of being cleared per node: u is in
	// the tree when present[u] == epoch, kept when keep[u] == epoch.
	present := make([]int32, n+1)
	keep := make([]int32, n+1)
	var epoch int32
	var ordered []treeNode
	var predBuf []int32
	var flat []int32
	var it, tit slist.Iterator // reused across the hot loop

	for _, x := range e.order { // forward topological order
		epoch++
		ordered = ordered[:0]

		// Read x's immediate predecessors (stored nearest-first).
		predBuf = predBuf[:0]
		it.Reset(preds, x)
		for {
			blk, ok := it.NextBlock()
			if !ok {
				break
			}
			e.met.SuccessorsFetched += int64(len(blk))
			predBuf = append(predBuf, blk...)
		}
		it.Close()
		if err := it.Err(); err != nil {
			return err
		}

		for _, p := range predBuf {
			e.met.ArcsConsidered++
			if present[p] == epoch && !e.cfg.DisableMarking {
				// p is already in the tree: its rooted contribution came
				// along with an earlier parent's tree. This is the marking
				// analogue, and it fires only for special parents.
				e.met.ArcsMarked++
				continue
			}
			e.met.ListUnions++
			e.met.noteUnmarked(e.levels[p] - e.levels[x])

			// Merge p's contribution: its own tree, rooted under p when p
			// is special.
			rooted := special(p)
			if rooted {
				e.met.TuplesGenerated++
				if present[p] != epoch {
					present[p] = epoch
					ordered = append(ordered, treeNode{node: p, parent: 0})
				} else {
					e.met.Duplicates++
				}
			}
			tit.Reset(trees, p)
			for {
				u, ok := tit.Next()
				if !ok {
					break
				}
				par, ok := tit.Next()
				if !ok {
					tit.Close()
					return errMalformedTree(p)
				}
				e.met.SuccessorsFetched += 2
				e.met.TuplesGenerated++
				if par == 0 && rooted {
					par = p
				}
				if present[u] == epoch {
					e.met.Duplicates++
					continue
				}
				present[u] = epoch
				ordered = append(ordered, treeNode{node: u, parent: par})
			}
			tit.Close()
			if err := tit.Err(); err != nil {
				return err
			}
		}

		// Prune subtrees that carry no source: they cannot answer any
		// reachability question and, left in place, would let join nodes
		// proliferate past the 2|S| bound of [15]. A kept node's parent is
		// always kept (its subtree contains the kept child's source), so
		// pruning preserves tree connectivity. Entries are parent-first,
		// so one reverse sweep propagates "contains a source" upward.
		for i := len(ordered) - 1; i >= 0; i-- {
			tn := ordered[i]
			if e.isSource[tn.node] || keep[tn.node] == epoch {
				keep[tn.node] = epoch
				if tn.parent != 0 {
					keep[tn.parent] = epoch
				}
			}
		}
		kept := ordered[:0]
		for _, tn := range ordered {
			if keep[tn.node] == epoch {
				kept = append(kept, tn)
			}
		}
		ordered = kept

		// If x is a source it becomes the single root of its own tree.
		roots := int32(0)
		for _, tn := range ordered {
			if tn.parent == 0 {
				roots++
			}
		}
		if e.isSource[x] {
			for i := range ordered {
				if ordered[i].parent == 0 {
					ordered[i].parent = x
				}
			}
			ordered = slices.Insert(ordered, 0, treeNode{node: x, parent: 0})
			roots = 1
		}
		rootCount[x] = roots

		// Materialize T_x. Every source in the tree yields one answer
		// tuple (s, x); the stored trees are the result representation.
		flat = flat[:0]
		for _, tn := range ordered {
			flat = append(flat, tn.node, tn.parent)
			e.met.DistinctTuples++
			if e.isSource[tn.node] && tn.node != x {
				e.met.SourceTuples++
			}
		}
		if err := trees.AppendAll(x, flat); err != nil {
			return err
		}
	}

	// Write the result trees out to disk.
	return e.pool.FlushFile(trees.File())
}

type errMalformedTree int32

func (e errMalformedTree) Error() string {
	return "core: malformed predecessor tree (odd entry count)"
}
