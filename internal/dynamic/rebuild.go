package dynamic

import (
	"fmt"
	"time"

	"tcstudy/internal/graph"
	"tcstudy/internal/index"
)

// worker is the generational rebuild loop: every kick (a batch applied
// while dirty) triggers one RebuildNow, which runs until the service is
// clean. The channel has capacity one, so the batches that land during a
// rebuild coalesce into one further kick.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.kick:
			s.RebuildNow()
		}
	}
}

// RebuildNow drives generational rebuilds until the service is clean (a
// no-op when it already is). One cycle: snapshot the authoritative
// adjacency and its log position under a read lock, build a fresh index
// entirely outside the locks (reads keep being served from the old
// generation via the overlay), then install it under the write lock. The
// install replays the batches logged since the snapshot up to the first
// one holding a closure-shrinking delete, so every cycle moves the serving
// generation forward even when writes keep dirtying it; a cycle that
// stops short leaves the service dirty and the loop snapshots again.
func (s *Service) RebuildNow() error {
	for {
		start := time.Now()
		snap, ok := s.snapshot()
		if !ok {
			return nil
		}
		nx, err := index.Build(graph.New(snap.n, snap.arcs))
		if err != nil {
			// Build only fails when the condensation is not acyclic, which
			// Condense guarantees against; surface it rather than spin.
			return err
		}
		if err := s.install(nx, snap.seq, start); err != nil {
			return err
		}
	}
}

// snapshot is a rebuild's copy of the authoritative graph, exact at log
// position seq.
type snapshot struct {
	seq  int64
	n    int
	arcs []graph.Arc
}

// snapshot copies the adjacency under the read lock. It reports false when
// the service is clean and there is nothing to rebuild.
func (s *Service) snapshot() (snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.dirty {
		return snapshot{}, false
	}
	return snapshot{seq: s.seq, n: s.n, arcs: s.arcsLocked()}, true
}

// install takes nx, built from the snapshot at log position snapSeq, and
// folds into it every whole batch logged since, stopping before the first
// one that holds a closure-shrinking delete. nx then serves as the new
// generation, exact at the position it reached; the inserts in any batches
// left over are recounted as pending and the service stays dirty. An
// install that would not move the serving position forward (a concurrent
// rebuild got further) is dropped.
func (s *Service) install(nx *index.Index, snapSeq int64, start time.Time) error {
	s.mu.Lock()
	pos := snapSeq
	for _, b := range s.log[snapSeq:] {
		if !patchable(b) {
			break
		}
		if err := replayBatch(nx, b); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("dynamic: replay batch %d into the new generation: %w", b.seq, err)
		}
		pos++
	}
	if pos <= s.idxSeq {
		s.mu.Unlock()
		return nil
	}
	s.idx = nx
	s.idxSeq = pos
	s.dirty = pos < s.seq
	s.pendIns = 0
	for _, b := range s.log[pos:] {
		for _, lo := range b.ops {
			if lo.applied && lo.Op.Op == OpInsert {
				s.pendIns++
			}
		}
	}
	s.generation++
	s.rebuilds++
	gen := s.generation
	hook := s.opts.OnRebuild
	s.mu.Unlock()
	if hook != nil {
		hook(gen, int(pos-snapSeq), time.Since(start))
	}
	return nil
}

// patchable reports whether a logged batch can be folded into an index
// exact at the position just before it: no op in it is a closure-shrinking
// delete (every other applied op has an in-place patch).
func patchable(b logBatch) bool {
	for _, lo := range b.ops {
		if lo.shrinking {
			return false
		}
	}
	return true
}

// replayBatch folds one patchable logged batch into a freshly built index
// whose graph state matches the log position just before the batch.
func replayBatch(nx *index.Index, b logBatch) error {
	for _, lo := range b.ops {
		if !lo.applied {
			continue
		}
		var err error
		switch {
		case lo.Op.Op == OpInsert:
			_, err = nx.InsertArcMerge(lo.From, lo.To)
		case lo.From == lo.To:
			err = nx.DeleteSelfLoop(lo.From)
		default:
			err = nx.DeleteRedundantArc(lo.From, lo.To)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
