package core

import (
	"errors"
	"slices"
	"sort"

	"tcstudy/internal/bitset"
	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
	"tcstudy/internal/slist"
)

// The list-closure driver. The paper presents BTC, BJ, HYB and SPN as one
// two-phase framework (Section 4): restructure the magic graph into
// successor lists laid out in processing order, then expand the lists in
// reverse topological order, unioning each node's list with the *full*
// lists of its immediate successors only (the immediate successor
// optimization) and skipping a child already reached through an earlier
// child (the marking optimization — on topologically ordered children,
// equivalent to the transitive reduction). The four algorithms differ in
// three independent choices, which listSpec names; each is a row of the
// strategy table in engine.go.

// listLayout is how a node's successors are laid out in its list.
type listLayout uint8

const (
	// flatLists stores the successors one entry each.
	flatLists listLayout = iota
	// treeLists stores successor spanning trees (Sections 3.5 and 4.1):
	// each parent is stored once, negated, followed by its children. When
	// the tree of child j is unioned into the tree of node v, a group whose
	// parent's subtree is already known to be present in S_v is skipped:
	// its successors are not fetched and no duplicates are generated for
	// them. As the paper observes (Section 6.2), the skipped *successor
	// fetches* rarely translate into skipped *page* reads, because the
	// group's page is almost always touched anyway; our encoding makes that
	// explicit — skipped entries are scanned past on already-resident pages
	// and simply not counted as tuple I/O.
	treeLists
	// weightedLists stores (child, weight) pairs: the immediate-successor
	// lists of the weighted path aggregates (paths.go), never expanded in
	// place.
	weightedLists
)

// listSpec is one configuration of the driver.
type listSpec struct {
	// reduce applies Jiang's single-parent optimization to the magic graph
	// of a selection before the lists are built (Section 3.3). For a full
	// closure no non-source node can be eliminated and BJ is exactly BTC,
	// as the paper notes in Section 6.2.
	reduce bool
	layout listLayout
	// blocked expands a diagonal block of ILIMIT·M pages of lists at a time
	// (Sections 3.2 and 4.1) instead of one node at a time. With ILIMIT = 0
	// no blocking is used, which makes HYB identical to BTC — the
	// configuration the paper found best (Figure 6).
	blocked bool
}

// The paper's list-based candidates (Section 3) as driver configurations.
var (
	specBTC = listSpec{}
	specBJ  = listSpec{reduce: true}
	specHYB = listSpec{blocked: true}
	specSPN = listSpec{layout: treeLists}
)

// listClosure adapts a configuration to the strategy table.
func listClosure(spec listSpec) func(*engine) error {
	return func(e *engine) error { return e.runListClosure(spec) }
}

// runListClosure executes one configuration end to end.
func (e *engine) runListClosure(spec listSpec) error {
	if err := e.timedPhase(true, func() error {
		adj, err := e.discover()
		if err != nil {
			return err
		}
		if spec.reduce && !e.q.IsFull() {
			adj = e.singleParentReduce(adj)
		}
		return e.buildLists(adj, spec.layout)
	}); err != nil {
		return err
	}
	tree := spec.layout == treeLists
	if tree {
		e.posCount = make([]int32, e.db.n+1)
	}
	if err := e.timedPhase(false, func() error {
		expand := e.expandInOrder
		if spec.blocked && e.cfg.ILIMIT > 0 {
			expand = e.expandBlocked
		}
		if err := expand(tree); err != nil {
			return err
		}
		return e.finalize(tree)
	}); err != nil {
		return err
	}
	nodes := e.answerNodes()
	return e.collectAnswer(e.store, nodes, nodes)
}

// expander bundles the per-node bit vectors, allocated once per run and
// cleared between nodes (the paper's cheap bit-vector duplicate
// elimination, Section 6.1).
type expander struct {
	tree     bool
	member   *bitset.Set // current members of the list under expansion
	childSet *bitset.Set // immediate children of the node
	// marked holds the nodes to which an arc from the node under expansion
	// is redundant. On flat lists those are the children reached by earlier
	// unions; in a tree, every node whose complete subtree is known to be
	// present in the list under expansion — which is also what lets a union
	// skip a group.
	marked    *bitset.Set
	touched   []int32 // tree: nodes reached by the current union, marked after it
	appendBuf []int32
	childBuf  []int32        // reused child-prefix buffer
	it        slist.Iterator // reused list iterator
}

func newExpander(n int, tree bool) *expander {
	return &expander{
		tree:     tree,
		member:   bitset.New(n + 1),
		childSet: bitset.New(n + 1),
		marked:   bitset.New(n + 1),
	}
}

func (x *expander) reset() {
	x.member.Clear()
	x.childSet.Clear()
	x.marked.Clear()
}

// loadChildren reads the immediate-successor prefix of node v's list (the
// first childCount children, which appends never disturb) and primes the
// expander's member and child sets. A tree's prefix is the single group
// (-v, children...); flat lists hold no negative entry to skip.
func (e *engine) loadChildren(v int32, x *expander) ([]int32, error) {
	x.reset()
	k := e.childCount[v]
	children := x.childBuf[:0]
	it := &x.it
	it.Reset(e.store, v)
	for int32(len(children)) < k {
		c, ok := it.Next()
		if !ok {
			break
		}
		e.met.SuccessorsFetched++
		if c < 0 { // the root marker -v
			continue
		}
		children = append(children, c)
		x.member.Add(c)
		x.childSet.Add(c)
	}
	it.Close()
	x.childBuf = children
	if x.tree {
		e.posCount[v] += int32(len(children))
	}
	return children, it.Err()
}

// considerArc counts the arc (v, j) of the magic graph and reports whether
// j's list must be unioned into v's: a child already reached through an
// earlier union — in a tree, one whose subtree arrived through it — is a
// marked (redundant) arc and is skipped.
func (e *engine) considerArc(j int32, x *expander) bool {
	e.met.ArcsConsidered++
	if !e.cfg.DisableMarking && x.marked.Has(j) {
		e.met.ArcsMarked++
		return false
	}
	return true
}

// union unions the full successor list of child j into node v's list. It
// reads every entry of S_j (counting successor fetches and generated
// tuples), eliminates duplicates with the member bit vector, marks any
// not-yet-processed children of v that the union reaches, and appends the
// new successors to S_v — in a tree, under the parent they hang from in
// S_j.
func (e *engine) union(v, j int32, x *expander) error {
	e.met.ListUnions++
	e.met.noteUnmarked(e.levels[v] - e.levels[j])
	x.appendBuf = x.appendBuf[:0]
	it := &x.it
	it.Reset(e.store, j)
	if !x.tree {
		for {
			blk, ok := it.NextBlock()
			if !ok {
				break
			}
			e.met.SuccessorsFetched += int64(len(blk))
			e.met.TuplesGenerated += int64(len(blk))
			for _, u := range blk {
				if x.childSet.Has(u) {
					x.marked.Add(u)
				}
				if x.member.TestAndAdd(u) {
					e.met.Duplicates++
					continue
				}
				x.appendBuf = append(x.appendBuf, u)
			}
		}
	} else {
		x.touched = x.touched[:0]
		skipping := false   // inside a group whose parent's subtree is present
		groupOpen := false  // a group marker was emitted to appendBuf
		var curParent int32 // parent of the group being read
		for {
			blk, ok := it.NextBlock()
			if !ok {
				break
			}
			for _, raw := range blk {
				if raw < 0 {
					// New group. Skip it if the parent's subtree was already
					// present before this union began (the paper's "no need
					// to read any successors of j in S_g" saving).
					curParent = -raw
					skipping = x.marked.Has(curParent)
					if !skipping {
						x.touched = append(x.touched, curParent)
					}
					groupOpen = false
					continue
				}
				if skipping {
					continue // scanned past, not fetched: no tuple I/O counted
				}
				e.met.SuccessorsFetched++
				e.met.TuplesGenerated++
				u := raw
				x.touched = append(x.touched, u)
				if x.member.TestAndAdd(u) {
					e.met.Duplicates++
					continue
				}
				e.posCount[v]++
				if !groupOpen {
					x.appendBuf = append(x.appendBuf, -curParent)
					groupOpen = true
				}
				x.appendBuf = append(x.appendBuf, u)
			}
		}
	}
	it.Close()
	if err := it.Err(); err != nil {
		return err
	}
	if err := e.store.AppendAll(v, x.appendBuf); err != nil {
		return err
	}
	if x.tree {
		// Every node the union visited (and every node it skipped over)
		// now has its full subtree in S_v. That is recorded only after the
		// union so that groups within S_j itself were not wrongly skipped.
		for _, u := range x.touched {
			x.marked.Add(u)
		}
		x.marked.Add(j)
	}
	return nil
}

// expandNode expands one node: children are considered in topological
// order (their stored order).
func (e *engine) expandNode(v int32, x *expander) error {
	children, err := e.loadChildren(v, x)
	if err != nil {
		return err
	}
	for _, j := range children {
		if !e.considerArc(j, x) {
			continue
		}
		if err := e.union(v, j, x); err != nil {
			return err
		}
	}
	return nil
}

// expandInOrder is the node-at-a-time schedule: every list is expanded
// whole, in reverse topological order.
func (e *engine) expandInOrder(tree bool) error {
	x := newExpander(e.db.n, tree)
	for i := len(e.order) - 1; i >= 0; i-- {
		if err := e.expandNode(e.order[i], x); err != nil {
			return err
		}
	}
	return nil
}

const hybWorkFrames = 4 // frames kept free for iterators, appends and splits

// expandBlocked is the Hybrid schedule (Sections 3.2 and 4.1): the next
// ILIMIT·M pages worth of lists (in reverse topological order) form the
// diagonal block, whose pages are fixed in the buffer pool. Each
// off-diagonal child list brought into memory is unioned with every
// diagonal list that has it as an unmarked child — the payoff of blocking —
// and only then are the diagonal-diagonal unions performed, in reverse
// topological order. Processing the off-diagonal part first costs marking
// opportunities, one of the three reasons the paper gives for blocking's
// poor showing (Section 6.2). When the pool runs short of frames the block
// is dynamically shrunk by releasing the most recently pinned lists
// ("dynamic reblocking").
func (e *engine) expandBlocked(tree bool) error {
	m := e.pool.Size()
	budget := int(e.cfg.ILIMIT * float64(m))
	if budget < 1 {
		budget = 1
	}
	if budget > m-hybWorkFrames {
		budget = m - hybWorkFrames
	}
	if budget < 1 {
		budget = 1
	}

	rev := make([]int32, len(e.order))
	for i, v := range e.order {
		rev[len(e.order)-1-i] = v
	}

	// Per-batch state is dense and reused across batches: xs[i] is the
	// expander of the batch's i-th list, requests[j] the batch positions
	// that need off-diagonal list j.
	var xs []*expander
	expanderAt := func(i int) *expander {
		for len(xs) <= i {
			xs = append(xs, newExpander(e.db.n, tree))
		}
		return xs[i]
	}
	requests := make([][]int32, e.db.n+1)
	inBatch := make([]bool, e.db.n+1)
	var (
		pins     [][]buffer.Handle // the pinned pages of each diagonal list
		distinct []pagedisk.PageID
		batch    []int32
		offDiag  []int32
	)
	ptr := 0
	for ptr < len(rev) {
		// --- Form the diagonal block -----------------------------------
		pins, distinct, batch = pins[:0], distinct[:0], batch[:0]
		for ptr < len(rev) && len(distinct) < budget {
			v := rev[ptr]
			handles, err := e.store.PinList(v)
			if errors.Is(err, buffer.ErrNoFrames) {
				break
			}
			if err != nil {
				return err
			}
			pins = append(pins, handles)
			for i := range handles {
				if _, pg := handles[i].Page(); !slices.Contains(distinct, pg) {
					distinct = append(distinct, pg)
				}
			}
			batch = append(batch, v)
			inBatch[v] = true
			ptr++
		}
		if len(batch) == 0 {
			// Not even one list could be pinned: expand the next node the
			// plain way and move on.
			if err := e.expandNode(rev[ptr], expanderAt(0)); err != nil {
				return err
			}
			ptr++
			continue
		}

		// reblock releases the most recently pinned diagonal list when the
		// pool runs short of work frames (dynamic reblocking). The list
		// stays in the batch; it simply loses its residency guarantee.
		reblock := func() {
			for e.pool.PinnedFrames() > m-hybWorkFrames && len(pins) > 0 {
				e.store.UnpinAll(pins[len(pins)-1])
				pins = pins[:len(pins)-1]
			}
		}
		reblock()

		// --- Load each diagonal list's children ------------------------
		// loadChildren leaves them in the expander's childBuf.
		for i, v := range batch {
			if _, err := e.loadChildren(v, expanderAt(i)); err != nil {
				return err
			}
		}

		// --- Phase A: off-diagonal unions, grouped by child ------------
		// One fetch of an off-diagonal list serves every diagonal list
		// that needs it (Figure 2).
		offDiag = offDiag[:0]
		for i := range batch {
			for _, j := range xs[i].childBuf {
				if inBatch[j] {
					continue
				}
				if len(requests[j]) == 0 {
					offDiag = append(offDiag, j)
				}
				requests[j] = append(requests[j], int32(i))
			}
		}
		sort.Slice(offDiag, func(a, b int) bool {
			return e.topoPos[offDiag[a]] < e.topoPos[offDiag[b]]
		})
		for _, j := range offDiag {
			for _, i := range requests[j] {
				if !e.considerArc(j, xs[i]) {
					continue
				}
				reblock()
				if err := e.union(batch[i], j, xs[i]); err != nil {
					return err
				}
			}
			requests[j] = requests[j][:0]
		}

		// --- Phase B: diagonal-diagonal unions, reverse topological ----
		for i, v := range batch {
			for _, j := range xs[i].childBuf {
				if !inBatch[j] || !e.considerArc(j, xs[i]) {
					continue
				}
				reblock()
				if err := e.union(v, j, xs[i]); err != nil {
					return err
				}
			}
		}

		// --- Release the block ------------------------------------------
		for _, handles := range pins {
			e.store.UnpinAll(handles)
		}
		for _, v := range batch {
			inBatch[v] = false
		}
	}
	return nil
}

// finalize tallies the tuple counts and writes the result out. A tree's
// materialized result tuples are its positive entries; parent markers are
// the structural overhead that makes the trees larger than flat lists.
func (e *engine) finalize(tree bool) error {
	count := func(v int32) int64 { return int64(e.store.Len(v)) }
	if tree {
		count = func(v int32) int64 { return int64(e.posCount[v]) }
	}
	for _, v := range e.order {
		e.met.DistinctTuples += count(v)
	}
	return e.writeOut(e.store, e.q.Sources, count)
}

// writeOut ends a computation phase whose result sits in store: for a full
// closure every expanded list is flushed; for a selection only the lists
// of the query's sources are written and the rest of the intermediate
// store is dropped (Section 4: "only the expanded lists of the query source
// nodes are written out"). lists[i] is the list holding source i's result —
// sources may share one — and count its result tuples.
func (e *engine) writeOut(store *slist.Store, lists []int32, count func(list int32) int64) error {
	if e.q.IsFull() {
		e.met.SourceTuples = e.met.DistinctTuples
		return e.pool.FlushFile(store.File())
	}
	flushed := bitset.New(e.db.n + 1) // list ids are node or component ids
	for _, l := range lists {
		e.met.SourceTuples += count(l)
		if flushed.TestAndAdd(l) {
			continue
		}
		if err := store.FlushList(l); err != nil {
			return err
		}
	}
	store.DiscardAll()
	return nil
}

// answerNodes lists the nodes whose lists form the answer: the sources of
// a selection, every node of the magic graph for a full closure.
func (e *engine) answerNodes() []int32 {
	if e.q.IsFull() {
		return e.order
	}
	return e.q.Sources
}

// collectAnswer materializes the answer sets after measurement ends: the
// successors of nodes[i] are the positive entries of lists[i] (every entry
// of a flat list; in a tree every node appears exactly once as a positive
// entry). Entries are already duplicate-free.
func (e *engine) collectAnswer(store *slist.Store, nodes, lists []int32) error {
	e.answer = make(map[int32][]int32, len(nodes))
	for i, v := range nodes {
		vals, err := store.ReadAll(lists[i])
		if err != nil {
			return err
		}
		succ := vals[:0]
		for _, u := range vals {
			if u > 0 {
				succ = append(succ, u)
			}
		}
		e.answer[v] = succ
	}
	return nil
}
