package dynamic

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tcstudy/internal/graph"
	"tcstudy/internal/index"
)

// arcSet is the test's own authoritative graph, mutated in lockstep with
// the service so the oracle is independent of everything the service
// maintains.
type arcSet map[[2]int32]bool

func (a arcSet) apply(o Op) {
	k := [2]int32{o.From, o.To}
	if o.Op == OpInsert {
		a[k] = true
	} else {
		delete(a, k)
	}
}

func (a arcSet) arcs() []graph.Arc {
	var out []graph.Arc
	for k := range a {
		out = append(out, graph.Arc{From: k[0], To: k[1]})
	}
	return out
}

// oracleReach is a fresh BFS per query — closure semantics, path length
// >= 1 — over the test's own arc set.
func oracleReach(n int, a arcSet, src, dst int32) bool {
	adj := make(map[int32][]int32)
	for k := range a {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	seen := make([]bool, n+1)
	var queue []int32
	for _, v := range adj[src] {
		if !seen[v] {
			seen[v] = true
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen[dst]
}

func newService(t *testing.T, n int, arcs []graph.Arc, opts Options) (*Service, arcSet) {
	t.Helper()
	g := graph.New(n, arcs)
	idx, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(n, g.Arcs(), idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	set := arcSet{}
	for _, a := range g.Arcs() {
		set[[2]int32{a.From, a.To}] = true
	}
	return s, set
}

// checkAllPairs pins every Reach answer to the oracle.
func checkAllPairs(t *testing.T, s *Service, n int, set arcSet, ctx string) {
	t.Helper()
	for u := int32(1); u <= int32(n); u++ {
		for v := int32(1); v <= int32(n); v++ {
			got, _, _, err := s.Reach(u, v, 0)
			if err != nil {
				t.Fatalf("%s: Reach(%d,%d): %v", ctx, u, v, err)
			}
			if want := oracleReach(n, set, u, v); got != want {
				t.Fatalf("%s: Reach(%d,%d) = %t, oracle %t", ctx, u, v, got, want)
			}
		}
	}
}

func baseChain(n int32) []graph.Arc {
	var arcs []graph.Arc
	for u := int32(1); u < n; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: u + 1})
	}
	return arcs
}

func TestApplyBasicsAndFingerprint(t *testing.T) {
	s, set := newService(t, 5, baseChain(5), Options{Manual: true, BaseFingerprint: 42})
	base := s.Stats().Fingerprint
	if base != 42 {
		t.Fatalf("fingerprint %d before any mutation, want the base 42", base)
	}

	res, err := s.Apply([]Op{{Op: OpInsert, From: 1, To: 3}, {Op: OpInsert, From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || res.Applied != 1 || res.Noops != 1 || res.Dirty {
		t.Fatalf("unexpected result %+v", res)
	}
	set.apply(Op{Op: OpInsert, From: 1, To: 3})
	checkAllPairs(t, s, 5, set, "after insert")

	// Deleting the arc just inserted cancels the fingerprint exactly.
	if _, err := s.Apply([]Op{{Op: OpDelete, From: 1, To: 3}}); err != nil {
		t.Fatal(err)
	}
	set.apply(Op{Op: OpDelete, From: 1, To: 3})
	if got := s.Stats().Fingerprint; got != base {
		t.Fatalf("fingerprint %016x after insert+delete, want base %016x", got, base)
	}
	checkAllPairs(t, s, 5, set, "after cancelling delete")

	// Validation failures apply nothing.
	if _, err := s.Apply([]Op{{Op: OpInsert, From: 1, To: 2}, {Op: "upsert", From: 1, To: 2}}); err == nil {
		t.Fatal("bad verb accepted")
	}
	if _, err := s.Apply([]Op{{Op: OpInsert, From: 0, To: 2}}); err == nil {
		t.Fatal("out-of-range op accepted")
	}
	if _, err := s.Apply(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if got := s.Stats().Seq; got != 2 {
		t.Fatalf("rejected batches moved seq to %d", got)
	}
}

func TestCycleInsertMergesInsteadOfStale(t *testing.T) {
	s, set := newService(t, 4, []graph.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	}, Options{Manual: true})
	res, err := s.Apply([]Op{{Op: OpInsert, From: 4, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 3 || res.Dirty {
		t.Fatalf("cycle insert result %+v, want 3 merged components and no rebuild", res)
	}
	set.apply(Op{Op: OpInsert, From: 4, To: 1})
	checkAllPairs(t, s, 4, set, "after cycle insert")
	if _, hit, _, _ := s.Reach(2, 1, 0); !hit {
		t.Fatal("post-merge read did not hit the index")
	}
}

func TestShrinkingDeleteOverlayAndRebuild(t *testing.T) {
	s, set := newService(t, 5, baseChain(5), Options{Manual: true})
	res, err := s.Apply([]Op{{Op: OpDelete, From: 3, To: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dirty || res.Pending != 1 {
		t.Fatalf("shrinking delete result %+v, want dirty with pending 1", res)
	}
	set.apply(Op{Op: OpDelete, From: 3, To: 4})

	// Mid-rebuild (dirty) answers come from the overlay and must already
	// reflect the delete.
	got, hit, _, err := s.Reach(1, 5, 0)
	if err != nil || got || hit {
		t.Fatalf("dirty Reach(1,5) = (%t, hit=%t, err=%v), want false via overlay", got, hit, err)
	}
	checkAllPairs(t, s, 5, set, "dirty")

	// More writes while dirty, including an insert the overlay must see.
	if _, err := s.Apply([]Op{{Op: OpInsert, From: 2, To: 5}}); err != nil {
		t.Fatal(err)
	}
	set.apply(Op{Op: OpInsert, From: 2, To: 5})
	checkAllPairs(t, s, 5, set, "dirty with pending insert")

	if err := s.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dirty || st.Generation != 1 || st.Pending != 0 {
		t.Fatalf("post-rebuild stats %+v", st)
	}
	checkAllPairs(t, s, 5, set, "after rebuild")
	if _, hit, _, _ := s.Reach(1, 3, 0); !hit {
		t.Fatal("post-rebuild read did not hit the index")
	}
}

func TestReadYourWritesFutureSeq(t *testing.T) {
	s, _ := newService(t, 3, baseChain(3), Options{Manual: true})
	if _, _, _, err := s.Reach(1, 2, 1); !errors.Is(err, ErrFutureSeq) {
		t.Fatalf("Reach with unapplied observed seq returned %v, want ErrFutureSeq", err)
	}
	if _, err := s.Apply([]Op{{Op: OpInsert, From: 3, To: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, seq, err := s.Reach(1, 2, 1); err != nil || seq != 1 {
		t.Fatalf("Reach at observed=applied seq: seq=%d err=%v", seq, err)
	}
}

func TestBacklogAdmission(t *testing.T) {
	s, _ := newService(t, 6, baseChain(6), Options{Manual: true, MaxPending: 2})
	// Two shrinking deletes fill the pending window.
	for _, o := range []Op{{Op: OpDelete, From: 1, To: 2}, {Op: OpDelete, From: 3, To: 4}} {
		if _, err := s.Apply([]Op{o}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Apply([]Op{{Op: OpInsert, From: 1, To: 3}}); !errors.Is(err, ErrBacklog) {
		t.Fatalf("third batch returned %v, want ErrBacklog", err)
	}
	if err := s.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Op: OpInsert, From: 1, To: 3}}); err != nil {
		t.Fatalf("post-rebuild apply still rejected: %v", err)
	}
}

// TestDeleteSchedulesMatchOracle is the delete-path property test: 50
// seeded DAG mutation schedules, heavy on deletes, pinning every post-batch
// Reach answer to a fresh BFS oracle — in the dirty state and after
// explicit rebuilds.
func TestDeleteSchedulesMatchOracle(t *testing.T) {
	const n = 16
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var base []graph.Arc
		for u := int32(1); u < n; u++ {
			for d := int32(1); d <= 3; d++ {
				if u+d <= n && rng.Intn(3) > 0 {
					base = append(base, graph.Arc{From: u, To: u + d})
				}
			}
		}
		s, set := newService(t, n, base, Options{Manual: true})
		for step := 0; step < 12; step++ {
			var ops []Op
			for len(ops) < 1+rng.Intn(3) {
				o := Op{Op: OpInsert, From: int32(rng.Intn(n) + 1), To: int32(rng.Intn(n) + 1)}
				if rng.Intn(2) == 0 {
					o.Op = OpDelete
					// Bias deletes toward arcs that exist so they bite.
					if existing := set.arcs(); len(existing) > 0 && rng.Intn(4) > 0 {
						pick := existing[rng.Intn(len(existing))]
						o.From, o.To = pick.From, pick.To
					}
				}
				ops = append(ops, o)
			}
			if _, err := s.Apply(ops); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, o := range ops {
				set.apply(o)
			}
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			checkAllPairs(t, s, n, set, ctx)
			if step%5 == 4 {
				if err := s.RebuildNow(); err != nil {
					t.Fatalf("%s: rebuild: %v", ctx, err)
				}
				checkAllPairs(t, s, n, set, ctx+" post-rebuild")
			}
		}
	}
}

// TestCrashRecoveryReplay rebuilds a fresh service from the base graph
// plus the survivor's mutation log and demands identical state: same
// sequence, same fingerprint, same answers.
func TestCrashRecoveryReplay(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(99))
	base := baseChain(n)
	a, set := newService(t, n, base, Options{Manual: true, BaseFingerprint: 7})
	for step := 0; step < 20; step++ {
		o := Op{Op: OpInsert, From: int32(rng.Intn(n) + 1), To: int32(rng.Intn(n) + 1)}
		if rng.Intn(3) == 0 {
			if existing := set.arcs(); len(existing) > 0 {
				pick := existing[rng.Intn(len(existing))]
				o = Op{Op: OpDelete, From: pick.From, To: pick.To}
			}
		}
		if _, err := a.Apply([]Op{o}); err != nil {
			t.Fatal(err)
		}
		set.apply(o)
		if step == 10 {
			if err := a.RebuildNow(); err != nil {
				t.Fatal(err)
			}
		}
	}

	b, _ := newService(t, n, base, Options{Manual: true, BaseFingerprint: 7})
	if err := b.ReplayLog(a.Log()); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Seq != sb.Seq {
		t.Fatalf("replayed seq %d, survivor %d", sb.Seq, sa.Seq)
	}
	if sa.Fingerprint != sb.Fingerprint {
		t.Fatalf("replayed fingerprint %016x, survivor %016x", sb.Fingerprint, sa.Fingerprint)
	}
	if sa.NumArcs != sb.NumArcs {
		t.Fatalf("replayed arcs %d, survivor %d", sb.NumArcs, sa.NumArcs)
	}
	checkAllPairs(t, b, n, set, "replayed service")
	// The survivor rebuilt mid-history; the replayed service may not have.
	// Rebuild both and the serving generations must agree on every answer.
	if err := b.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, b, n, set, "replayed service post-rebuild")
}

// TestConcurrentMutateAndRead exercises the background worker under the
// race detector: writers, readers and the rebuild loop all run at once.
func TestConcurrentMutateAndRead(t *testing.T) {
	const n = 32
	s, _ := newService(t, n, baseChain(n), Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				o := Op{Op: OpInsert, From: int32(rng.Intn(n) + 1), To: int32(rng.Intn(n) + 1)}
				if rng.Intn(3) == 0 {
					o.Op = OpDelete
				}
				if _, err := s.Apply([]Op{o}); err != nil && !errors.Is(err, ErrBacklog) {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 200; i++ {
				u, v := int32(rng.Intn(n)+1), int32(rng.Intn(n)+1)
				if _, _, _, err := s.Reach(u, v, 0); err != nil {
					t.Errorf("reach: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
