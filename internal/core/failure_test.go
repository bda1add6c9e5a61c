package core

import (
	"errors"
	"fmt"
	"testing"

	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/pagedisk"
)

// TestInjectedIOFailuresSurface drives every algorithm into injected I/O
// failures at many points of its execution and checks that each failure is
// returned as an error (never a panic, never a silent wrong answer).
func TestInjectedIOFailuresSurface(t *testing.T) {
	_, db := randomDAG(t, 601, 120, 4, 25)
	sources := graphgen.SourceSet(120, 4, 3)
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			// Find the failure-free I/O volume first.
			db.disk.(*pagedisk.Disk).FailAfter(-1)
			res, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8, ILIMIT: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			total := res.Metrics.TotalIO()
			if total < 4 {
				t.Skipf("only %d I/Os, nothing to inject into", total)
			}
			// Inject failures at a spread of points, including during
			// answer extraction (beyond the measured I/O count).
			points := []int64{0, 1, total / 4, total / 2, total - 1, total + 2}
			for _, p := range points {
				db.disk.(*pagedisk.Disk).FailAfter(p)
				_, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8, ILIMIT: 0.3})
				db.disk.(*pagedisk.Disk).FailAfter(-1)
				if err == nil {
					// Extraction I/O past `total` may legitimately
					// succeed if fewer post-run reads were needed.
					if p <= total-1 {
						t.Fatalf("failure at I/O %d of %d not surfaced", p, total)
					}
					continue
				}
				if !errors.Is(err, pagedisk.ErrIOInjected) {
					t.Fatalf("failure at I/O %d: got %v, want injected error", p, err)
				}
			}
		})
	}
	db.disk.(*pagedisk.Disk).FailAfter(-1)
}

// TestFailureDuringFullClosure exercises the CTC paths under injection.
func TestFailureDuringFullClosure(t *testing.T) {
	_, db := randomDAG(t, 602, 100, 4, 25)
	for _, alg := range Algorithms() {
		db.disk.(*pagedisk.Disk).FailAfter(-1)
		res, err := Run(db, alg, Query{}, Config{BufferPages: 8, ILIMIT: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		mid := res.Metrics.TotalIO() / 2
		db.disk.(*pagedisk.Disk).FailAfter(mid)
		if _, err := Run(db, alg, Query{}, Config{BufferPages: 8, ILIMIT: 0.2}); !errors.Is(err, pagedisk.ErrIOInjected) {
			t.Fatalf("%s: mid-run failure returned %v", alg, err)
		}
		db.disk.(*pagedisk.Disk).FailAfter(-1)
	}
}

// TestRecoveryAfterFailure checks a database remains usable after a failed
// run: the next run must produce the correct answer.
func TestRecoveryAfterFailure(t *testing.T) {
	g, db := randomDAG(t, 603, 100, 4, 25)
	want := refSuccessors(t, g, nil)
	for _, alg := range []Algorithm{BTC, SPN, JKB2, SEMI, WARREN} {
		db.disk.(*pagedisk.Disk).FailAfter(50)
		_, _ = Run(db, alg, Query{}, Config{BufferPages: 8})
		db.disk.(*pagedisk.Disk).FailAfter(-1)
		res, err := Run(db, alg, Query{}, Config{BufferPages: 8})
		if err != nil {
			t.Fatalf("%s after failed run: %v", alg, err)
		}
		checkAnswer(t, alg, res.Successors, want, true, g)
	}
}

// TestHYBForcedReblocking uses a pool barely above the minimum with a large
// ILIMIT so the diagonal block must shed pages mid-expansion, and verifies
// the answer survives.
func TestHYBForcedReblocking(t *testing.T) {
	g, db := randomDAG(t, 604, 200, 6, 60)
	want := refSuccessors(t, g, nil)
	for _, m := range []int{4, 5, 6} {
		res, err := Run(db, HYB, Query{}, Config{BufferPages: m, ILIMIT: 0.95})
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		checkAnswer(t, HYB, res.Successors, want, true, g)
	}
}

// TestHYBBlockingReducesChildFetches verifies blocking's one benefit is
// real in the implementation: with a diagonal block, an off-diagonal child
// shared by several diagonal lists is fetched once per block rather than
// once per list, so compute-phase buffer misses per union cannot exceed
// plain BTC's.
func TestHYBBlockingCorrectAtEveryILIMIT(t *testing.T) {
	g, db := randomDAG(t, 605, 150, 5, 40)
	want := refSuccessors(t, g, nil)
	for ilimit := 0.05; ilimit <= 1.0; ilimit += 0.16 {
		res, err := Run(db, HYB, Query{}, Config{BufferPages: 12, ILIMIT: ilimit})
		if err != nil {
			t.Fatalf("ILIMIT %.2f: %v", ilimit, err)
		}
		checkAnswer(t, HYB, res.Successors, want, true, g)
		if res.Metrics.ArcsConsidered != int64(g.NumArcs()) {
			t.Fatalf("ILIMIT %.2f considered %d arcs, graph has %d",
				ilimit, res.Metrics.ArcsConsidered, g.NumArcs())
		}
	}
}

// TestHYBLosesMarkingsVersusBTC reproduces the paper's mechanism: the
// off-diagonal-first union order can only lose marking opportunities.
func TestHYBLosesMarkingsVersusBTC(t *testing.T) {
	_, db := randomDAG(t, 606, 400, 6, 80)
	rb, err := Run(db, BTC, Query{}, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(db, HYB, Query{}, Config{BufferPages: 10, ILIMIT: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if rh.Metrics.ArcsMarked > rb.Metrics.ArcsMarked {
		t.Fatalf("HYB marked more arcs (%d) than BTC (%d)",
			rh.Metrics.ArcsMarked, rb.Metrics.ArcsMarked)
	}
}

// TestAllAlgorithmsLeaveNoPins runs every algorithm and then checks the
// engine released every buffer pin (indirectly: a fresh run with a minimal
// pool must not fail with ErrNoFrames caused by leaked pins).
func TestAllAlgorithmsLeaveNoPins(t *testing.T) {
	_, db := randomDAG(t, 607, 120, 4, 25)
	for _, alg := range Algorithms() {
		for i := 0; i < 2; i++ {
			if _, err := Run(db, alg, Query{Sources: []int32{1, 7}}, Config{BufferPages: 4, ILIMIT: 0.5}); err != nil {
				t.Fatalf("%s run %d with minimal pool: %v", alg, i, err)
			}
		}
	}
}

func ExampleRun() {
	db := NewDatabase(4, []graph.Arc{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}})
	res, _ := Run(db, BTC, Query{Sources: []int32{1}}, Config{BufferPages: 8})
	fmt.Println(len(res.Successors[1]))
	// Output: 3
}

// TestRunOneRecoversEnginePanic: a query that panics inside the engine —
// here a list id past the 16-bit block owner field — fails with an
// *InternalError instead of ending the process, and the database keeps
// answering afterwards.
func TestRunOneRecoversEnginePanic(t *testing.T) {
	const n = 70000
	db := NewDatabase(n, []graph.Arc{{From: 1, To: 2}, {From: n - 1, To: n}})
	run := func(r Request) (resp Response) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("RunOne panicked: %v", p)
			}
		}()
		return RunOne(db, r)
	}
	resp := run(Request{Alg: BTC})
	var ie *InternalError
	if !errors.As(resp.Err, &ie) {
		t.Fatalf("err = %v, want *InternalError", resp.Err)
	}
	if ie.Alg != BTC {
		t.Errorf("InternalError.Alg = %q, want btc", ie.Alg)
	}
	resp = run(Request{Alg: BTC, Query: Query{Sources: []int32{1}}})
	if resp.Err != nil {
		t.Fatalf("query after the panic: %v", resp.Err)
	}
	if got := resp.Result.Successors[1]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("successors of 1 = %v, want [2]", got)
	}
}
