package core

import (
	"tcstudy/internal/bitset"
	"tcstudy/internal/buffer"
	"tcstudy/internal/obsv"
)

// runSRCH executes the Search algorithm (Section 3.4): each source node is
// expanded independently by a depth-first search over the base relation.
// There is no restructuring of non-source nodes and no immediate-successor
// optimization — the source's list is unioned with the *immediate*
// successor list of every node reachable from it, so a multi-source query
// with k sources behaves like k single-source queries. Per Section 4.1 the
// search replaces the preprocessing phase and no computation phase remains;
// following Figure 13 we report the whole run under the computation-phase
// buffer statistics so its hit ratio is comparable.
func (e *engine) runSRCH() error {
	n := e.db.n
	e.store = e.newStore("source-lists", n+1)

	srcs := e.sources() // every node when a full closure is requested
	err := e.timedPhase(false, func() error {
		member := bitset.New(n + 1) // reused visited/member set
		var stack []int32
		var childBuf []int32
		for _, s := range srcs {
			// Per-source expansion span: SRCH is the one algorithm whose
			// work decomposes naturally per source, so a trace shows which
			// source paid which pages.
			var srcSpan *obsv.Span
			var srcBase buffer.Stats
			if e.phaseSpan != nil {
				srcSpan = e.phaseSpan.Child("source", obsv.KV("node", s))
				srcBase = e.pool.Stats()
			}
			// The source starts outside its own member set: it is its own
			// successor exactly when a cycle leads back to it.
			member.Clear()
			stack = append(stack[:0], s)
			for len(stack) > 0 {
				y := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				// Union S_s with the immediate successor list of y, read
				// from the relation through the clustered index.
				e.met.ListUnions++
				var err error
				if childBuf, err = e.children(y, childBuf[:0]); err != nil {
					return err
				}
				exp := childBuf[:0]
				for _, c := range childBuf {
					e.met.ArcsConsidered++
					e.met.SuccessorsFetched++
					e.met.TuplesGenerated++
					if member.TestAndAdd(c) {
						e.met.Duplicates++
						continue
					}
					exp = append(exp, c)
				}
				if err := e.store.AppendAll(s, exp); err != nil {
					return err
				}
				// Depth-first continuation from the newly found successors.
				for i := len(exp) - 1; i >= 0; i-- {
					stack = append(stack, exp[i])
				}
			}
			e.met.DistinctTuples += int64(e.store.Len(s))
			if srcSpan != nil {
				d := e.pool.Stats().Sub(srcBase)
				srcSpan.SetIO(obsv.IO{Reads: d.Reads, Writes: d.Writes,
					Hits: d.Hits, Misses: d.Misses, Evicts: d.Evicts})
				srcSpan.Annotate(obsv.KV("successors", e.store.Len(s)))
				srcSpan.Finish()
			}
		}
		// Write the source lists out. Flushing must happen after the last
		// append: growing a later source's list can split a page and
		// relocate an earlier list onto fresh pages.
		for _, s := range srcs {
			if err := e.store.FlushList(s); err != nil {
				return err
			}
		}
		// Search expands only source lists: selection efficiency is 1.
		e.met.SourceTuples = e.met.DistinctTuples
		e.store.DiscardAll()
		return nil
	})
	if err != nil {
		return err
	}
	return e.collectAnswer(e.store, srcs, srcs)
}
