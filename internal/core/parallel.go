package core

// Intra-query source parallelism. A multi-source PTC query's sources are
// partitioned into contiguous slices, and each slice runs as an
// independent sub-query — the full serial two-phase engine with its own
// buffer pool and its own temporary files — on its own goroutine. The
// answers are disjoint by construction (each source's successor set is
// produced by exactly one worker), so merging is a union; the metric
// records are summed, which makes the parallel record honest about the
// extra total work (every worker restructures its own magic subgraph).
//
// This is deliberately scatter-gather, not a shared-state parallel
// algorithm: the paper's engine stays byte-for-byte sequential inside each
// worker, which is what keeps per-worker accounting identical to a solo
// run of the same sub-query.

import "tcstudy/internal/obsv"

// partitioned reports whether the request asks for source partitioning:
// an algorithm that partitions (the strategy table says which), an explicit
// Parallelism of at least 2 and a PTC query with at least two sources to
// split. CTC (empty source set) always runs serially.
func (r Request) partitioned() bool {
	return strategyOf(r.Alg).partitions && r.Cfg.Parallelism > 1 && len(r.Query.Sources) > 1
}

// partitionSources splits sources into at most workers contiguous,
// non-empty slices of near-equal size.
func partitionSources(sources []int32, workers int) [][]int32 {
	if workers > len(sources) {
		workers = len(sources)
	}
	parts := make([][]int32, 0, workers)
	for w := 0; w < workers; w++ {
		lo := w * len(sources) / workers
		hi := (w + 1) * len(sources) / workers
		parts = append(parts, sources[lo:hi])
	}
	return parts
}

// runParallelSources fans a validated multi-source query out over a
// bounded worker group and merges the sub-results. The first worker error
// wins; the remaining workers still run to completion (they own private
// pools and temp files, so there is nothing to cancel — each releases its
// storage on return).
func runParallelSources(db *Database, r Request) (*Result, error) {
	cfg := r.Cfg
	parts := partitionSources(r.Query.Sources, cfg.Parallelism)
	subCfg := cfg
	subCfg.Parallelism = 0 // workers are serial; no recursive fan-out
	subCfg.Trace = nil     // each worker gets its own span below

	results := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	done := make(chan int, len(parts))
	for w := range parts {
		wcfg := subCfg
		if cfg.Trace != nil {
			// Worker spans are opened here, in partition order, so the
			// trace lists workers deterministically; each worker's engine
			// then hangs its own restructure/compute spans underneath.
			wcfg.Trace = cfg.Trace.Child("worker",
				obsv.KV("worker", w), obsv.KV("sources", len(parts[w])))
		}
		go func(w int, wcfg Config) {
			results[w], errs[w] = Request{Alg: r.Alg, Query: Query{Sources: parts[w]}, Cfg: wcfg}.runSerial(db)
			wcfg.Trace.Finish()
			done <- w
		}(w, wcfg)
	}
	for range parts {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := results[0]
	for _, r := range results[1:] {
		mergeResult(merged, r)
	}
	return merged, nil
}

// mergeResult folds src into dst: successor sets union (keys are disjoint
// across workers), additive counters sum, per-phase times take the
// maximum (workers ran concurrently), and the rectangle-model dimensions
// take the maximum (each worker saw its own magic subgraph).
func mergeResult(dst, src *Result) {
	if dst.Successors == nil && len(src.Successors) > 0 {
		dst.Successors = make(map[int32][]int32, len(src.Successors))
	}
	for s, succ := range src.Successors {
		dst.Successors[s] = succ
	}
	dm, sm := &dst.Metrics, &src.Metrics

	dm.Restructure.Reads += sm.Restructure.Reads
	dm.Restructure.Writes += sm.Restructure.Writes
	dm.Compute.Reads += sm.Compute.Reads
	dm.Compute.Writes += sm.Compute.Writes

	dm.ComputeBuffer.Hits += sm.ComputeBuffer.Hits
	dm.ComputeBuffer.Misses += sm.ComputeBuffer.Misses
	dm.ComputeBuffer.Evicts += sm.ComputeBuffer.Evicts
	dm.ComputeBuffer.Reads += sm.ComputeBuffer.Reads
	dm.ComputeBuffer.Writes += sm.ComputeBuffer.Writes

	dm.TuplesGenerated += sm.TuplesGenerated
	dm.Duplicates += sm.Duplicates
	dm.DistinctTuples += sm.DistinctTuples
	dm.SourceTuples += sm.SourceTuples
	dm.SuccessorsFetched += sm.SuccessorsFetched
	dm.ListUnions += sm.ListUnions
	dm.ArcsConsidered += sm.ArcsConsidered
	dm.ArcsMarked += sm.ArcsMarked
	dm.unmarkedLocSum += sm.unmarkedLocSum
	dm.unmarkedLocCount += sm.unmarkedLocCount

	dm.MagicNodes += sm.MagicNodes
	dm.MagicArcs += sm.MagicArcs
	if sm.MagicH > dm.MagicH {
		dm.MagicH = sm.MagicH
	}
	if sm.MagicW > dm.MagicW {
		dm.MagicW = sm.MagicW
	}

	dm.Store.Splits += sm.Store.Splits
	dm.Store.ListsMoved += sm.Store.ListsMoved
	dm.Store.EntriesMoved += sm.Store.EntriesMoved
	dm.Store.Overflows += sm.Store.Overflows

	if sm.RestructureTime > dm.RestructureTime {
		dm.RestructureTime = sm.RestructureTime
	}
	if sm.ComputeTime > dm.ComputeTime {
		dm.ComputeTime = sm.ComputeTime
	}
}
