// Package index provides a persistent reachability index that answers
// Reach(src,dst) with zero page I/O, the O(1)/O(log k) fast path the
// serving layer puts in front of the paper's per-query closure engine.
//
// The design follows the chain-decomposition line of work (Jagadish;
// Kritikakis & Tollis, "Fast and Practical DAG Decomposition with
// Reachability Applications"): the input graph is condensed to its DAG of
// strongly connected components (graph.Condense), the DAG is covered by
// vertex-disjoint chains — paths in topological order, so reaching a chain
// at position p implies reaching every later position — and every DAG node
// carries a compressed closure label: a bitset over chains it reaches plus,
// per reached chain, the minimum reachable position. A query then costs one
// component lookup, one bitset probe (O(1) negative answer) and one binary
// search over the node's reached chains (O(log k)).
//
// The index supports incremental maintenance (InsertArcMerge) in the spirit
// of Hanauer & Henzinger ("Faster Fully Dynamic Transitive Closure in
// Practice"): inserts that keep the condensation acyclic are folded into
// the labels in place; an insert that closes a cycle among components
// creates exactly one new strongly connected component, which is collapsed
// in place — the index never has to give up on an insert.
package index

import (
	"fmt"
	"sort"
	"sync"

	"tcstudy/internal/bitset"
	"tcstudy/internal/graph"
)

// label is one DAG node's compressed closure: the set of chains it reaches
// (for O(1) negative answers) and, for each reached chain in ascending
// chain order, the minimum reachable position. Reaching position p of a
// chain implies reaching every position > p, because chains are paths.
type label struct {
	set    *bitset.Set // chains reached, bit per chain
	chains []int32     // reached chain ids, sorted ascending
	minPos []int32     // parallel: minimum reachable position per chain
}

// lookup returns the minimum reachable position in chain c, or -1 when the
// label does not reach chain c at all. The search is hand-rolled: this is
// the hottest loop of every positive Reach probe, and a sort.Search closure
// call per halving step costs more than the comparison it wraps.
func (l *label) lookup(c int32) int32 {
	if l.set == nil || !l.set.Has(c) {
		return -1
	}
	lo, hi := 0, len(l.chains)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.chains[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l.minPos[lo]
}

// Builder names for the two chain-decomposition strategies. The name is
// persisted in the TCIX flags word, so a loaded index still reports which
// builder produced it.
const (
	// BuilderGreedy is the original topological-sweep decomposition:
	// chains are arc-paths extended whenever a parent is a chain tail.
	BuilderGreedy = "greedy"
	// BuilderKT is the Kritikakis–Tollis decomposition (BuildKT): path
	// extraction plus reachability-gated chain concatenation.
	BuilderKT = "kt"
)

// Index is a reachability index over a directed graph on nodes 1..n. It is
// safe for concurrent use: queries take a read lock, the in-place
// mutations (InsertArcMerge and the delete patches) a write lock.
type Index struct {
	mu sync.RWMutex

	n       int     // original node count
	numArcs int     // arcs in the indexed graph (updated by the in-place mutations)
	builder string  // decomposition that produced the chains
	comp    []int32 // node -> condensation component, len n+1
	members [][]int32

	numChains int
	chainID   []int32   // DAG node -> chain (0-based), len K+1
	chainPos  []int32   // DAG node -> position within its chain
	chains    [][]int32 // chain -> DAG nodes in path order

	labels   []label     // per DAG node, len K+1
	succ     []int32     // per DAG node, exact successor count (see recomputeSucc)
	pred     []int32     // per DAG node, live predecessor count (see recomputeSucc)
	selfLoop *bitset.Set // original nodes with a self-arc
	gen      int         // in-place mutations folded since build/load (not persisted)
}

// newSkeleton is the part of an index both builders share: the
// condensation of g, its topological order, and an Index holding everything
// that does not depend on the chain decomposition — component map, member
// lists, self-loops, empty label slots.
func newSkeleton(g *graph.Graph, builder string) (x *Index, dag *graph.Graph, order []int32, err error) {
	n := g.N()
	cond := g.Condense()
	dag = cond.DAG
	if order, err = dag.TopoSort(); err != nil {
		return nil, nil, nil, fmt.Errorf("index: condensation not acyclic: %w", err)
	}
	x = &Index{
		n:        n,
		numArcs:  g.NumArcs(),
		builder:  builder,
		comp:     cond.Component,
		members:  cond.Members,
		labels:   make([]label, dag.N()+1),
		selfLoop: bitset.New(n + 1),
	}
	for v := int32(1); v <= int32(n); v++ {
		if hasArc(g.Children(v), v) {
			x.selfLoop.Add(v)
		}
	}
	return x, dag, order, nil
}

// greedyCover is the greedy chain decomposition: walk the DAG in
// topological order and append each node to a chain whose current tail is
// one of its parents, opening a new chain otherwise. Every chain is a
// path, so positions along it order reachability. It returns the per-node
// (chain, position) columns and each chain's tail; chain ids come out in
// topological order of their heads.
func greedyCover(dag *graph.Graph, order []int32) (chainID, chainPos, tails []int32) {
	k := dag.N()
	rev := make([][]int32, k+1)
	for _, a := range dag.Arcs() {
		rev[a.To] = append(rev[a.To], a.From)
	}
	chainID, chainPos = make([]int32, k+1), make([]int32, k+1)
	for i := range chainID {
		chainID[i] = -1
	}
	for _, v := range order {
		placed := false
		for _, p := range rev[v] {
			c := chainID[p]
			if c >= 0 && tails[c] == p {
				chainID[v] = c
				chainPos[v] = chainPos[p] + 1
				tails[c] = v
				placed = true
				break
			}
		}
		if !placed {
			chainID[v] = int32(len(tails))
			chainPos[v] = 0
			tails = append(tails, v)
		}
	}
	return chainID, chainPos, tails
}

// Build constructs the index for g over the greedy chain cover. Cyclic
// graphs are handled through SCC condensation; self-arcs are recorded so
// closure semantics (a node reaches itself only through a cycle) are
// preserved.
func Build(g *graph.Graph) (*Index, error) {
	x, dag, order, err := newSkeleton(g, BuilderGreedy)
	if err != nil {
		return nil, err
	}
	var tails []int32
	x.chainID, x.chainPos, tails = greedyCover(dag, order)
	x.numChains = len(tails)
	x.chains = chainsOf(x.chainID, x.chainPos, x.numChains)

	// Closure labels in reverse topological order: a node reaches, through
	// each child, the child itself plus everything the child reaches. The
	// dense scratch array turns the per-node merge into one pass over the
	// children's compressed labels.
	dense := make([]int32, x.numChains)
	for i := range dense {
		dense[i] = -1
	}
	var touched []int32
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, c := range dag.Children(v) {
			touched = updateMin(dense, touched, x.chainID[c], x.chainPos[c])
			lc := &x.labels[c]
			for j, ch := range lc.chains {
				touched = updateMin(dense, touched, ch, lc.minPos[j])
			}
		}
		x.labels[v] = packLabel(dense, touched, x.numChains)
		for _, ch := range touched {
			dense[ch] = -1
		}
		touched = touched[:0]
	}
	x.recomputeSucc()
	return x, nil
}

// updateMin folds one (chain, pos) point into the dense scratch array.
func updateMin(dense []int32, touched []int32, c, pos int32) []int32 {
	switch cur := dense[c]; {
	case cur < 0:
		dense[c] = pos
		return append(touched, c)
	case pos < cur:
		dense[c] = pos
	}
	return touched
}

// packLabel freezes the scratch state into a compressed label.
func packLabel(dense []int32, touched []int32, numChains int) label {
	l := label{
		set:    bitset.New(numChains),
		chains: make([]int32, len(touched)),
		minPos: make([]int32, len(touched)),
	}
	copy(l.chains, touched)
	sort.Slice(l.chains, func(a, b int) bool { return l.chains[a] < l.chains[b] })
	for i, c := range l.chains {
		l.minPos[i] = dense[c]
		l.set.Add(c)
	}
	return l
}

// chainsOf derives the chain -> members-in-order view from per-node
// (chainID, chainPos) columns over DAG nodes 1..len-1.
func chainsOf(chainID, chainPos []int32, numChains int) [][]int32 {
	counts := make([]int32, numChains)
	for d := 1; d < len(chainID); d++ {
		counts[chainID[d]]++
	}
	chains := make([][]int32, numChains)
	for c := range chains {
		chains[c] = make([]int32, counts[c])
	}
	for d := 1; d < len(chainID); d++ {
		chains[chainID[d]][chainPos[d]] = int32(d)
	}
	return chains
}

func hasArc(children []int32, v int32) bool {
	i := sort.Search(len(children), func(i int) bool { return children[i] >= v })
	return i < len(children) && children[i] == v
}

// N reports the number of nodes in the indexed graph.
func (x *Index) N() int { return x.n }

// Builder reports which decomposition produced the chains (BuilderGreedy
// or BuilderKT); the name round-trips through Save/Load.
func (x *Index) Builder() string { return x.builder }

// Chains reports the chain count k — the width of every label bitset and
// the decomposition-quality number the KT builder minimizes.
func (x *Index) Chains() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.numChains
}

// NumArcs reports the number of arcs in the indexed graph, counting the
// in-place inserts and deletes since the build.
func (x *Index) NumArcs() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.numArcs
}

// Generation reports how many mutations have been folded in place since
// the index was built or loaded. A freshly built or loaded index is
// generation 0; the counter is not persisted by Save. Replicas serving
// the same index file at the same generation give identical answers,
// which is what a routing tier's health checks compare.
func (x *Index) Generation() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.gen
}

// Reach reports whether src reaches dst, with closure semantics: a node
// reaches itself only through a cycle (a non-trivial component or a
// self-arc). Nodes outside 1..n are unreachable by definition.
func (x *Index) Reach(src, dst int32) bool {
	if src < 1 || dst < 1 || int(src) > x.n || int(dst) > x.n {
		return false
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.reachLocked(src, dst)
}

func (x *Index) reachLocked(src, dst int32) bool {
	cs, cd := x.comp[src], x.comp[dst]
	if cs == cd {
		if src != dst {
			return true // same non-trivial strongly connected component
		}
		return len(x.members[cs]) > 1 || x.selfLoop.Has(src)
	}
	return x.dagReach(cs, cd)
}

// dagReach reports whether component a reaches component b (a != b) via a
// path of length >= 1 in the condensation DAG. Two count gates reject
// most negatives in O(1) before any label work:
//
//   - succ: a path a ~> b puts b and all of b's successors among a's, so
//     succ[a] < succ[b] proves unreachability;
//   - pred: it equally puts a and all of a's predecessors among b's, so
//     pred[b] < pred[a] proves unreachability.
//
// (Both comparisons are strict-less, not <=: after a cycle collapse the
// merged representative's label carries its own chain point, so an
// ancestor's succ count — and the representative's own pred count — can
// tie.) The pair filters exactly the probes the chain bitset cannot —
// b's chain touched by a's label, but only past b (common under merged KT
// chains, where one chain spans many regions): such an a sits late in the
// order, with few predecessors of its own, while an early b has fewer
// successors than it. Survivors pay the bitset probe and an O(log label)
// search.
func (x *Index) dagReach(a, b int32) bool {
	if x.succ[a] < x.succ[b] || x.pred[b] < x.pred[a] {
		return false
	}
	return x.dagReachLabel(a, b)
}

// dagReachLabel is dagReach without the successor-count gate: the label
// probe alone. In-place mutation sweeps (foldAcyclicLocked,
// mergeComponentsLocked) must use it, because they interleave label
// updates with membership probes and the counts are only recomputed once
// the sweep settles.
func (x *Index) dagReachLabel(a, b int32) bool {
	p := x.labels[a].lookup(x.chainID[b])
	return p >= 0 && p <= x.chainPos[b]
}

// succCount derives a component's exact DAG successor count from its
// label: positions minPos..len-1 of every reached chain, each DAG slot
// counted once because chains partition the slots. Nothing is persisted —
// Load re-derives the counts the same way.
func (x *Index) succCount(d int32) int32 {
	var s int32
	l := &x.labels[d]
	for j, c := range l.chains {
		s += int32(len(x.chains[c])) - l.minPos[j]
	}
	return s
}

// recomputeSucc refreshes every component's successor and predecessor
// counts after the labels settle (build, load, or a mutation sweep). The
// pred pass inverts the labels with one per-chain difference array: entry
// (c, m) of a live label marks positions m.. of chain c reached, so a
// prefix sum over the deltas yields, per slot, how many live components
// reach it. Only live labels count — the fold sweeps stop maintaining a
// label once its component is absorbed, so a dead label goes stale and
// must not vote.
func (x *Index) recomputeSucc() {
	if cap(x.succ) < len(x.labels) {
		x.succ = make([]int32, len(x.labels))
	}
	x.succ = x.succ[:len(x.labels)]
	for d := 1; d < len(x.labels); d++ {
		x.succ[d] = x.succCount(int32(d))
	}
	if cap(x.pred) < len(x.labels) {
		x.pred = make([]int32, len(x.labels))
	}
	x.pred = x.pred[:len(x.labels)]
	delta := make([][]int32, x.numChains)
	for c := range delta {
		delta[c] = make([]int32, len(x.chains[c]))
	}
	for d := 1; d < len(x.labels); d++ {
		if !x.live(int32(d)) {
			continue
		}
		l := &x.labels[d]
		for j, c := range l.chains {
			delta[c][l.minPos[j]]++
		}
	}
	for c, dl := range delta {
		var sum int32
		for p, inc := range dl {
			sum += inc
			x.pred[x.chains[c][p]] = sum
		}
	}
}

// live reports whether DAG node d is still a component of its own. A node
// whose members were absorbed by an InsertArcMerge cycle collapse keeps its
// chain slot (labels may still point at it) but owns no original nodes and
// must be skipped by sweeps over components.
func (x *Index) live(d int32) bool {
	return len(x.members[d]) > 0
}

// Successors returns every node reachable from src (closure semantics),
// sorted ascending. It enumerates the label's chains: reaching position p
// of a chain means reaching all of its members from p on.
func (x *Index) Successors(src int32) []int32 {
	if src < 1 || int(src) > x.n {
		return nil
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []int32
	cs := x.comp[src]
	if len(x.members[cs]) > 1 {
		out = append(out, x.members[cs]...)
	} else if x.selfLoop.Has(src) {
		out = append(out, src)
	}
	lb := &x.labels[cs]
	for j, c := range lb.chains {
		chain := x.chains[c]
		for p := lb.minPos[j]; p < int32(len(chain)); p++ {
			out = append(out, x.members[chain[p]]...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// After a cycle collapse the source's merged label carries its own
	// chain point, so its members can appear both above and through the
	// chain walk; collapse duplicates.
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Stats summarizes the index shape for inspection tooling.
type Stats struct {
	Nodes        int     // original nodes
	Arcs         int     // arcs in the indexed graph
	Components   int     // condensation DAG nodes
	Chains       int     // chain count k (label width)
	Builder      string  // decomposition that produced the chains
	LabelEntries int     // total (chain, minPos) pairs across all labels
	AvgLabel     float64 // label entries per DAG node
	P50Label     int     // median label entries per component
	P95Label     int     // 95th-percentile label entries per component
	MaxLabel     int     // largest single label
	FileBytes    int64   // exact serialized size Save would write
	BytesPerNode float64 // FileBytes / Nodes (0 for an empty graph)
	ChainOverlap float64 // fraction of sampled label pairs whose chain sets intersect
	Generation   int     // in-place mutations folded since build/load
	Merged       int     // components absorbed by cycle-collapsing inserts
}

// ComputeStats derives the summary. ChainOverlap samples up to 64
// components and measures, with bitset.Intersects, how often two labels
// share at least one chain — a proxy for how much the chain compression is
// actually shared across the graph. Every derived ratio is guarded against
// the degenerate shapes Load accepts (an empty graph, a k == n index of
// one-node chains whose labels are all empty): the ratios report 0 rather
// than dividing by zero.
func (x *Index) ComputeStats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	k := len(x.labels) - 1
	st := Stats{
		Nodes:      x.n,
		Arcs:       x.numArcs,
		Components: k,
		Chains:     x.numChains,
		Builder:    x.builder,
		Generation: x.gen,
	}
	sizes := make([]int, 0, k)
	for d := 1; d <= k; d++ {
		st.LabelEntries += len(x.labels[d].chains)
		sizes = append(sizes, len(x.labels[d].chains))
		if !x.live(int32(d)) {
			st.Merged++
		}
	}
	if k > 0 {
		st.AvgLabel = float64(st.LabelEntries) / float64(k)
		sort.Ints(sizes)
		st.P50Label = sizes[50*(len(sizes)-1)/100]
		st.P95Label = sizes[95*(len(sizes)-1)/100]
		st.MaxLabel = sizes[len(sizes)-1]
	}
	st.FileBytes = x.savedBytesLocked()
	if x.n > 0 {
		st.BytesPerNode = float64(st.FileBytes) / float64(x.n)
	}
	sample := k
	if sample > 64 {
		sample = 64
	}
	pairs, hits := 0, 0
	for a := 1; a <= sample; a++ {
		for b := a + 1; b <= sample; b++ {
			pairs++
			if x.labels[a].set.Intersects(x.labels[b].set) {
				hits++
			}
		}
	}
	if pairs > 0 {
		st.ChainOverlap = float64(hits) / float64(pairs)
	}
	return st
}
