package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"tcstudy/internal/graph"
	"tcstudy/internal/index"
)

func (a arcSet) clone() arcSet {
	out := make(arcSet, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// startBuild is the first half of one rebuild cycle: the snapshot and the
// index built from it, which install later folds forward.
func startBuild(t *testing.T, s *Service) (int64, *index.Index) {
	t.Helper()
	snap, ok := s.snapshot()
	if !ok {
		t.Fatal("snapshot of a clean service")
	}
	nx, err := index.Build(graph.New(snap.n, snap.arcs))
	if err != nil {
		t.Fatal(err)
	}
	return snap.seq, nx
}

func mustApply(t *testing.T, s *Service, set arcSet, ops ...Op) {
	t.Helper()
	if _, err := s.Apply(ops); err != nil {
		t.Fatalf("apply %v: %v", ops, err)
	}
	for _, o := range ops {
		set.apply(o)
	}
}

// checkServing pins every Reach to history[seq], where history[k] is the
// arc set after batch k, and the dirty flag to the index's log position.
func checkServing(t *testing.T, s *Service, n int, history []arcSet, ctx string) {
	t.Helper()
	s.mu.RLock()
	idxSeq, seq, dirty := s.idxSeq, s.seq, s.dirty
	s.mu.RUnlock()
	if dirty != (idxSeq < seq) {
		t.Fatalf("%s: dirty=%t with the index at %d of %d batches", ctx, dirty, idxSeq, seq)
	}
	checkAllPairs(t, s, n, history[seq], ctx)
}

// checkInstalled is checkServing right after an install landed: the new
// generation must also be exact at its own log position. (Between
// installs it need not be: a batch that dirties a clean service leaves the
// inserts ahead of its shrinking delete patched into the index.)
func checkInstalled(t *testing.T, s *Service, n int, history []arcSet, ctx string) {
	t.Helper()
	s.mu.RLock()
	idx, idxSeq := s.idx, s.idxSeq
	s.mu.RUnlock()
	for u := int32(1); u <= int32(n); u++ {
		for v := int32(1); v <= int32(n); v++ {
			if got, want := idx.Reach(u, v), oracleReach(n, history[idxSeq], u, v); got != want {
				t.Fatalf("%s: index at seq %d: Reach(%d,%d) = %t, oracle %t", ctx, idxSeq, u, v, got, want)
			}
		}
	}
	checkServing(t, s, n, history, ctx)
}

// TestRebuildInstallsLongestPrefix lands batches between a build's
// snapshot and its install — two patchable ones, then one holding an
// insert before a closure-shrinking delete, then one more insert — and
// demands the install stop exactly before the unpatchable batch, with
// none of it folded into the new generation.
func TestRebuildInstallsLongestPrefix(t *testing.T) {
	const n = 6
	base := append(baseChain(n), graph.Arc{From: 1, To: 3})
	s, set := newService(t, n, base, Options{Manual: true})
	history := []arcSet{set.clone()}
	land := func(ops ...Op) {
		mustApply(t, s, set, ops...)
		history = append(history, set.clone())
	}

	land(Op{Op: OpDelete, From: 4, To: 5}) // shrinking: dirty
	snapSeq, nx := startBuild(t, s)
	land(Op{Op: OpInsert, From: 2, To: 6})                                   // seq 2: patchable insert
	land(Op{Op: OpDelete, From: 1, To: 3})                                   // seq 3: 1->2->3 remains, patchable
	land(Op{Op: OpInsert, From: 6, To: 1}, Op{Op: OpDelete, From: 2, To: 3}) // seq 4: shrinking after an insert
	land(Op{Op: OpInsert, From: 3, To: 5})                                   // seq 5
	if err := s.install(nx, snapSeq, time.Now()); err != nil {
		t.Fatal(err)
	}

	s.mu.RLock()
	idxSeq, pendIns := s.idxSeq, s.pendIns
	s.mu.RUnlock()
	if idxSeq != 3 {
		t.Fatalf("installed generation at seq %d, want 3 (right before the shrinking batch 4)", idxSeq)
	}
	if pendIns != 2 {
		t.Fatalf("pending inserts %d after the install, want 2 (batches 4 and 5)", pendIns)
	}
	st := s.Stats()
	if st.Pending != 2 || !st.Dirty || st.Generation != 1 {
		t.Fatalf("stats after a prefix install %+v, want pending 2, dirty, generation 1", st)
	}
	checkInstalled(t, s, n, history, "after the prefix install")

	if err := s.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Pending != 0 || st.Dirty || st.Generation != 2 {
		t.Fatalf("stats after RebuildNow %+v, want clean at generation 2", st)
	}
	checkInstalled(t, s, n, history, "after RebuildNow")
}

// TestRebuildStreamNeverSheds is the livelock schedule: every batch holds
// a closure-shrinking delete, and exactly one lands between each build's
// snapshot and its install. Each install must still advance the serving
// generation, so the backlog stays at one batch and MaxPending+50 batches
// all get in.
func TestRebuildStreamNeverSheds(t *testing.T) {
	const n = 8
	s, set := newService(t, n, baseChain(n), Options{Manual: true})
	history := []arcSet{set.clone()}
	mustApply(t, s, set, Op{Op: OpDelete, From: 1, To: 2})
	history = append(history, set.clone())
	prev := int32(1) // the one chain arc currently missing
	for i := 0; i < s.opts.MaxPending+50; i++ {
		snapSeq, nx := startBuild(t, s)
		// Restore the missing chain arc and cut another: with the chain
		// otherwise whole, the cut always shrinks the closure.
		cut := int32(i+1)%(n-1) + 1
		ops := []Op{{Op: OpInsert, From: prev, To: prev + 1}, {Op: OpDelete, From: cut, To: cut + 1}}
		if _, err := s.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, o := range ops {
			set.apply(o)
		}
		history = append(history, set.clone())
		prev = cut
		if err := s.install(nx, snapSeq, time.Now()); err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("batch %d", i)
		if st := s.Stats(); st.Pending != 1 || st.Generation != int64(i+1) {
			t.Fatalf("%s: stats %+v, want pending 1 at generation %d", ctx, st, i+1)
		}
		checkInstalled(t, s, n, history, ctx)
	}
}

// TestRebuildRacesWorker runs explicit RebuildNow calls against the
// background worker while a writer cuts and restores chain arcs and
// readers probe: installs from concurrent builds must never move the
// serving generation backwards, and the quiesced service must be exact.
func TestRebuildRacesWorker(t *testing.T) {
	const n = 24
	var mu sync.Mutex
	var installed []int64 // idxSeq after each install, in install order
	s, set := newService(t, n, baseChain(n), Options{})
	s.SetOnRebuild(func(int64, int, time.Duration) {
		s.mu.RLock()
		at := s.idxSeq
		s.mu.RUnlock()
		mu.Lock()
		installed = append(installed, at)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.RebuildNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := int32(0); i < 400; i++ {
			select {
			case <-done:
				return
			default:
			}
			u, v := i%(n-1)+1, (i*7)%n+1
			if _, _, _, err := s.Reach(u, v, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	prev := int32(0)
	var applyErr error
	for i := 0; i < 120 && applyErr == nil; i++ {
		cut := int32(i)%(n-1) + 1
		ops := []Op{{Op: OpDelete, From: cut, To: cut + 1}}
		if prev != 0 {
			ops = append(ops, Op{Op: OpInsert, From: prev, To: prev + 1})
		}
		_, err := s.Apply(ops)
		switch {
		case err == nil:
			for _, o := range ops {
				set.apply(o)
			}
			prev = cut
		case !errors.Is(err, ErrBacklog):
			applyErr = err
		}
	}
	close(done)
	wg.Wait()
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if err := s.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dirty || st.Pending != 0 {
		t.Fatalf("quiesced stats %+v", st)
	}
	checkAllPairs(t, s, n, set, "quiesced")
	mu.Lock()
	defer mu.Unlock()
	if !slices.IsSorted(installed) {
		t.Fatalf("serving position went backwards across installs: %v", installed)
	}
}

// TestArcsSorted pins the public arc list to (From, To) order, whatever
// order inserts and swap-deletes left the out-lists in.
func TestArcsSorted(t *testing.T) {
	const n = 6
	s, set := newService(t, n, baseChain(n), Options{Manual: true})
	mustApply(t, s, set,
		Op{Op: OpInsert, From: 1, To: 6}, Op{Op: OpInsert, From: 1, To: 4},
		Op{Op: OpInsert, From: 1, To: 3}, Op{Op: OpDelete, From: 1, To: 2},
		Op{Op: OpInsert, From: 5, To: 1}, Op{Op: OpInsert, From: 2, To: 2})
	got := s.Arcs()
	want := set.arcs()
	slices.SortFunc(want, func(a, b graph.Arc) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Arcs() = %v, want %v", got, want)
	}
}
