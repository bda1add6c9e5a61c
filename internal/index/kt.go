package index

// The Kritikakis–Tollis practical DAG decomposition (PAPERS.md: "Fast and
// Practical DAG Decomposition with Reachability Applications",
// arXiv:2212.03945; "Parameterized Linear Time Transitive Closure",
// arXiv:2404.17954). Where the greedy builder appends each node to a chain
// whose tail is a direct parent — so chains are arc-paths and the chain
// count k tracks how often the topological sweep fails to find a parent
// tail — the KT builder drives k toward the DAG's width in two phases:
//
//  1. Node-order heuristic: a topological sweep extracts vertex-disjoint
//     paths by following an unassigned child each step (the child earliest
//     in the topological order, for determinism), concatenating as far as
//     the arc structure allows.
//  2. Path-concatenation reduction: two chains are merged whenever the
//     tail of one *reaches* the head of the other — not necessarily by an
//     arc. The chain invariant the labels rely on ("reaching position p
//     implies reaching every position > p") only needs each element to
//     reach its successor, so reachability-linked concatenations are as
//     good as arc paths, and the TCIX file format carries them unchanged.
//
// Label construction follows the parameterized-linear-time formulation:
// per chain c, one reverse-topological sweep computes min-position(v, c)
// for every node v in O(n+m), giving O(k(n+m)) total — and the per-chain
// sweeps are independent, so they fan out across a bounded worker pool
// (the same shape as core's PR4 source-partitioning pool). The merge
// phase's gating reachability checks ride the same pool: the preliminary
// sweep over the phase-1 chains answers "does tail(A) reach head(B)?" as
// "is min-position(tail(A), B) == 0?", because a chain's head sits at
// position 0.
//
// The output is deterministic for a given graph regardless of
// Parallelism: workers fill disjoint rows of a batch matrix that is
// consumed in fixed chain order, and the greedy linking pass is serial.

import (
	"sort"

	"tcstudy/internal/bitset"
	"tcstudy/internal/graph"
)

// KTOptions configure BuildKT.
type KTOptions struct {
	// Parallelism bounds the worker pool for the per-chain label sweeps
	// and the merge-gating reachability checks. Values below 1 mean
	// serial. The result is identical at every setting.
	Parallelism int
}

// rowBatchSize bounds the per-batch scratch to batch × (K+1) int32s while
// giving the pool enough independent rows to keep every worker busy.
const rowBatchSize = 64

// BuildKT constructs the index for g with the Kritikakis–Tollis
// decomposition. The resulting index answers exactly like Build's — same
// labels semantics, same file format, same incremental maintenance — but
// with fewer chains on graphs wider than they are deep, which shrinks
// every label and the saved file with it.
func BuildKT(g *graph.Graph, opt KTOptions) (*Index, error) {
	par := opt.Parallelism
	if par < 1 {
		par = 1
	}
	x, dag, order, err := newSkeleton(g, BuilderKT)
	if err != nil {
		return nil, err
	}
	k := dag.N()

	// Phase 1 — node-order path heuristic: the greedy builder's cover.
	// Using it as the starting partition makes phase 2 a strict coarsening
	// of the greedy decomposition: every merged chain is a concatenation
	// of greedy chains, so no label can gain entries and both k and the
	// serialized size only move down.
	initID, initPos, tails := greedyCover(dag, order)
	k0 := len(tails)

	// Phase 2 — concatenation reduction. A preliminary per-chain sweep
	// over the phase-1 chains gates the merges: chain B's head is
	// reachable from chain A's tail iff the tail's min position on B is 0.
	// Candidate lists are gathered per chain A (in ascending candidate
	// chain id, which is ascending head topological position) by parallel
	// workers; the linking pass itself is serial so the result does not
	// depend on worker scheduling. Link cycles are impossible: every link
	// follows DAG reachability.
	//
	// Linking is a maximum bipartite matching of chain tails to chain
	// heads. Maximality minimizes the final chain count, and the order in
	// which tails enter the matching minimizes label size: every node
	// reaching any position of chain A also reaches A's tail and hence
	// everything A links to, so a link out of A deletes exactly
	// ancestors(A) label entries — chains with the most ancestors link
	// first, and Kuhn augmentation never unlinks a linked chain.
	cands := make([][]int32, k0)
	anc := make([]int32, k0) // nodes whose labels reach each chain
	sweepChainRows(dag, order, initID, initPos, k0, par, func(start int, rows [][]int32) {
		parallelRange(k0, par, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				for i, row := range rows {
					if row[tails[a]] == 0 {
						cands[a] = append(cands[a], int32(start+i))
					}
				}
			}
		})
		parallelRange(len(rows), par, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var cnt int32
				for _, p := range rows[i][1:] {
					if p >= 0 {
						cnt++
					}
				}
				anc[start+i] = cnt
			}
		})
	})
	next := linkChains(cands, anc)
	claimed := make([]bool, k0)
	for _, b := range next {
		if b >= 0 {
			claimed[b] = true
		}
	}

	// Renumber: every unclaimed head starts a merged chain; walking the
	// link list concatenates the phase-1 paths into one position-ordered
	// sequence. Merged chain ids follow ascending first-head order.
	initChains := chainsOf(initID, initPos, k0)
	x.chainID, x.chainPos = make([]int32, k+1), make([]int32, k+1)
	nc := 0
	for a := 0; a < k0; a++ {
		if claimed[a] {
			continue // linked into an earlier chain
		}
		pos := int32(0)
		for c := int32(a); c >= 0; c = next[c] {
			for _, v := range initChains[c] {
				x.chainID[v] = int32(nc)
				x.chainPos[v] = pos
				pos++
			}
		}
		nc++
	}
	x.numChains = nc
	x.chains = chainsOf(x.chainID, x.chainPos, nc)

	// Final labels over the merged coordinates: the same per-chain sweeps,
	// gathered into per-node compressed labels. Batches arrive in
	// ascending chain order and nodes append in batch order, so every
	// label's chain list is sorted without a sort.
	chains := make([][]int32, k+1)
	minPos := make([][]int32, k+1)
	sweepChainRows(dag, order, x.chainID, x.chainPos, nc, par, func(start int, rows [][]int32) {
		parallelRange(k+1, par, func(lo, hi int) {
			if lo == 0 {
				lo = 1 // node 0 is never used
			}
			for v := lo; v < hi; v++ {
				for i, row := range rows {
					if p := row[v]; p >= 0 {
						chains[v] = append(chains[v], int32(start+i))
						minPos[v] = append(minPos[v], p)
					}
				}
			}
		})
	})
	parallelRange(k+1, par, func(lo, hi int) {
		if lo == 0 {
			lo = 1
		}
		for d := lo; d < hi; d++ {
			l := label{set: bitset.New(nc), chains: chains[d], minPos: minPos[d]}
			if l.chains == nil {
				l.chains, l.minPos = []int32{}, []int32{}
			}
			for _, c := range l.chains {
				l.set.Add(c)
			}
			x.labels[d] = l
		}
	})
	x.recomputeSucc()
	return x, nil
}

// linkChains picks the phase-2 links: a maximum bipartite matching from
// chain tails to candidate heads (Kuhn's augmenting paths), so the final
// chain count k0 - |matching| is as small as the candidate graph allows.
// Tails enter the matching in descending ancestor count (ascending id on
// ties): a link out of chain A deletes ancestors(A) label entries, and
// augmentation re-routes but never evicts an earlier tail, so the heaviest
// chains keep their links. Returns next[a] = linked head chain or -1.
func linkChains(cands [][]int32, anc []int32) []int32 {
	k0 := len(cands)
	order := make([]int32, k0)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if anc[a] != anc[b] {
			return anc[a] > anc[b]
		}
		return a < b
	})
	matchHead := make([]int32, k0) // head chain -> tail chain linked into it
	visited := make([]int32, k0)
	for i := range matchHead {
		matchHead[i] = -1
		visited[i] = -1
	}
	var epoch int32
	var try func(a int32) bool
	try = func(a int32) bool {
		for _, b := range cands[a] {
			if visited[b] == epoch {
				continue
			}
			visited[b] = epoch
			if matchHead[b] < 0 || try(matchHead[b]) {
				matchHead[b] = a
				return true
			}
		}
		return false
	}
	for _, a := range order {
		try(a)
		epoch++
	}
	next := make([]int32, k0)
	for i := range next {
		next[i] = -1
	}
	for b, a := range matchHead {
		if a >= 0 {
			next[a] = int32(b)
		}
	}
	return next
}

// sweepChainRows computes, for every chain c in 0..numChains-1, the row
// minpos_c: per DAG node the minimum position on chain c reachable through
// at least one arc (-1 when unreachable), and hands the rows to consume in
// batches of ascending chain order. Row filling fans out across at most
// par workers; consume runs serially between batches and may parallelize
// internally.
func sweepChainRows(dag *graph.Graph, order []int32, chainID, chainPos []int32, numChains, par int, consume func(start int, rows [][]int32)) {
	if numChains == 0 {
		return
	}
	batch := rowBatchSize
	if batch > numChains {
		batch = numChains
	}
	rows := make([][]int32, batch)
	for i := range rows {
		rows[i] = make([]int32, dag.N()+1)
	}
	for start := 0; start < numChains; start += batch {
		cnt := batch
		if start+cnt > numChains {
			cnt = numChains - start
		}
		parallelRange(cnt, par, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fillChainRow(dag, order, chainID, chainPos, int32(start+i), rows[i])
			}
		})
		consume(start, rows[:cnt])
	}
}

// fillChainRow runs one reverse-topological sweep for chain c:
// row[v] = min over children ch of (pos(ch) if ch is on chain c, and
// row[ch]), the exact quantity the greedy builder's label merge computes
// for that chain.
func fillChainRow(dag *graph.Graph, order []int32, chainID, chainPos []int32, c int32, row []int32) {
	for i := range row {
		row[i] = -1
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := int32(-1)
		for _, ch := range dag.Children(v) {
			if chainID[ch] == c && (best < 0 || chainPos[ch] < best) {
				best = chainPos[ch]
			}
			if r := row[ch]; r >= 0 && (best < 0 || r < best) {
				best = r
			}
		}
		row[v] = best
	}
}

// parallelRange splits 0..n across at most par workers as contiguous
// half-open slices and waits for all of them. par <= 1 runs inline.
func parallelRange(n, par int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		fn(0, n)
		return
	}
	done := make(chan struct{}, par)
	for w := 0; w < par; w++ {
		lo, hi := w*n/par, (w+1)*n/par
		go func(lo, hi int) {
			fn(lo, hi)
			done <- struct{}{}
		}(lo, hi)
	}
	for w := 0; w < par; w++ {
		<-done
	}
}
