package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
)

// refSuccessors computes the expected answer with the in-memory reference
// closure.
func refSuccessors(t *testing.T, g *graph.Graph, sources []int32) map[int32][]int32 {
	t.Helper()
	succ, err := g.Closure()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]int32{}
	var nodes []int32
	if len(sources) == 0 {
		for v := int32(1); v <= int32(g.N()); v++ {
			nodes = append(nodes, v)
		}
	} else {
		nodes = sources
	}
	for _, v := range nodes {
		var s []int32
		succ[v].ForEach(func(u int32) { s = append(s, u) })
		want[v] = s
	}
	return want
}

func sorted(vals []int32) []int32 {
	out := make([]int32, len(vals))
	copy(out, vals)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkAnswer(t *testing.T, alg Algorithm, got, want map[int32][]int32, full bool, g *graph.Graph) {
	t.Helper()
	for v, w := range want {
		gv := sorted(got[v])
		// For a full closure, flat algorithms report every node of the
		// magic graph; nodes with no successors may be absent from got if
		// they were never discovered (isolated nodes are roots too, so
		// they are present with empty lists). Compare contents.
		if len(gv) != len(w) {
			t.Fatalf("%s: successors of %d: got %d (%v), want %d (%v)",
				alg, v, len(gv), trim(gv), len(w), trim(w))
		}
		for i := range w {
			if gv[i] != w[i] {
				t.Fatalf("%s: successors of %d differ at %d: got %d, want %d",
					alg, v, i, gv[i], w[i])
			}
		}
	}
}

func trim(v []int32) []int32 {
	if len(v) > 20 {
		return v[:20]
	}
	return v
}

func randomDAG(t *testing.T, seed int64, n, f, l int) (*graph.Graph, *Database) {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: n, OutDegree: f, Locality: l, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n, arcs)
	return g, NewDatabase(n, arcs)
}

// TestAllAlgorithmsFullClosure is the central integration test: every
// algorithm must produce the reference closure on a spread of graph shapes.
func TestAllAlgorithmsFullClosure(t *testing.T) {
	shapes := []struct{ n, f, l int }{
		{60, 2, 10},  // deep, sparse
		{60, 5, 60},  // shallow, denser
		{120, 3, 25}, // medium
		{40, 8, 40},  // dense
	}
	for si, sh := range shapes {
		g, db := randomDAG(t, int64(100+si), sh.n, sh.f, sh.l)
		want := refSuccessors(t, g, nil)
		for _, alg := range Algorithms() {
			t.Run(fmt.Sprintf("%s/n%d-f%d-l%d", alg, sh.n, sh.f, sh.l), func(t *testing.T) {
				cfg := Config{BufferPages: 8}
				if alg == HYB {
					cfg.ILIMIT = 0.3
				}
				res, err := Run(db, alg, Query{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkAnswer(t, alg, res.Successors, want, true, g)
			})
		}
	}
}

// TestAllAlgorithmsPartialClosure validates PTC answers for every algorithm
// across selectivities.
func TestAllAlgorithmsPartialClosure(t *testing.T) {
	g, db := randomDAG(t, 7, 150, 4, 30)
	for _, s := range []int{1, 3, 10, 40} {
		sources := graphgen.SourceSet(150, s, int64(s))
		want := refSuccessors(t, g, sources)
		for _, alg := range Algorithms() {
			t.Run(fmt.Sprintf("%s/s%d", alg, s), func(t *testing.T) {
				cfg := Config{BufferPages: 8}
				if alg == HYB {
					cfg.ILIMIT = 0.25
				}
				res, err := Run(db, alg, Query{Sources: sources}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkAnswer(t, alg, res.Successors, want, false, g)
			})
		}
	}
}

// TestAllBufferSizesAndPolicies stresses the paging machinery: answers must
// be identical under every page/list replacement policy and tiny pools.
func TestAllBufferSizesAndPolicies(t *testing.T) {
	g, db := randomDAG(t, 21, 100, 4, 20)
	sources := graphgen.SourceSet(100, 5, 5)
	want := refSuccessors(t, g, sources)
	wantFull := refSuccessors(t, g, nil)
	for _, m := range []int{4, 7, 16} {
		for _, pp := range []string{"lru", "mru", "fifo", "clock", "random"} {
			for _, lp := range []string{"smallest", "largest", "lru", "random"} {
				cfg := Config{BufferPages: m, PagePolicy: pp, ListPolicy: lp}
				name := fmt.Sprintf("m%d-%s-%s", m, pp, lp)
				t.Run(name, func(t *testing.T) {
					res, err := Run(db, BTC, Query{Sources: sources}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkAnswer(t, BTC, res.Successors, want, false, g)
					resF, err := Run(db, BTC, Query{}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkAnswer(t, BTC, resF.Successors, wantFull, true, g)
				})
			}
		}
	}
}

// TestHYBILimitSweep checks correctness across blocking factors, including
// blocks larger than the pool allows (forcing dynamic reblocking).
func TestHYBILimitSweep(t *testing.T) {
	g, db := randomDAG(t, 33, 120, 5, 40)
	want := refSuccessors(t, g, nil)
	for _, il := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.9} {
		t.Run(fmt.Sprintf("ilimit%.1f", il), func(t *testing.T) {
			res, err := Run(db, HYB, Query{}, Config{BufferPages: 6, ILIMIT: il})
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, HYB, res.Successors, want, true, g)
		})
	}
}

func TestHYBZeroILimitEqualsBTC(t *testing.T) {
	_, db := randomDAG(t, 40, 100, 4, 25)
	rb, err := Run(db, BTC, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(db, HYB, Query{}, Config{BufferPages: 8, ILIMIT: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Metrics.TotalIO() != rh.Metrics.TotalIO() {
		t.Fatalf("HYB(ILIMIT=0) I/O %d != BTC I/O %d",
			rh.Metrics.TotalIO(), rb.Metrics.TotalIO())
	}
	if rb.Metrics.ListUnions != rh.Metrics.ListUnions {
		t.Fatalf("unions differ: %d vs %d", rh.Metrics.ListUnions, rb.Metrics.ListUnions)
	}
}

func TestBJEqualsBTCOnFullClosure(t *testing.T) {
	// Section 6.2: for CTC, BJ is identical to BTC since no non-source
	// node can be eliminated.
	_, db := randomDAG(t, 50, 100, 4, 25)
	rb, err := Run(db, BTC, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	rj, err := Run(db, BJ, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Metrics.TotalIO() != rj.Metrics.TotalIO() ||
		rb.Metrics.ListUnions != rj.Metrics.ListUnions ||
		rb.Metrics.TuplesGenerated != rj.Metrics.TuplesGenerated {
		t.Fatalf("BJ and BTC diverge on CTC: %+v vs %+v", rj.Metrics, rb.Metrics)
	}
}

func TestErrorPaths(t *testing.T) {
	_, db := randomDAG(t, 60, 30, 2, 10)
	if _, err := Run(db, BTC, Query{}, Config{BufferPages: 2}); err == nil {
		t.Fatal("accepted a 2-page buffer pool")
	}
	if _, err := Run(db, Algorithm("nope"), Query{}, Config{BufferPages: 8}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	if _, err := Run(db, BTC, Query{Sources: []int32{0}}, Config{BufferPages: 8}); err == nil {
		t.Fatal("accepted source node 0")
	}
	if _, err := Run(db, BTC, Query{Sources: []int32{31}}, Config{BufferPages: 8}); err == nil {
		t.Fatal("accepted out-of-range source")
	}
	if _, err := Run(db, BTC, Query{}, Config{BufferPages: 8, PagePolicy: "zzz"}); err == nil {
		t.Fatal("accepted unknown page policy")
	}
	if _, err := Run(db, BTC, Query{}, Config{BufferPages: 8, ListPolicy: "zzz"}); err == nil {
		t.Fatal("accepted unknown list policy")
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	// A graph with no arcs at all.
	db := NewDatabase(5, nil)
	for _, alg := range Algorithms() {
		res, err := Run(db, alg, Query{}, Config{BufferPages: 8})
		if err != nil {
			t.Fatalf("%s on empty graph: %v", alg, err)
		}
		for v, s := range res.Successors {
			if len(s) != 0 {
				t.Fatalf("%s: node %d has successors %v on empty graph", alg, v, s)
			}
		}
	}
	// A single arc.
	db1 := NewDatabase(2, []graph.Arc{{From: 1, To: 2}})
	for _, alg := range Algorithms() {
		res, err := Run(db1, alg, Query{Sources: []int32{1}}, Config{BufferPages: 8})
		if err != nil {
			t.Fatalf("%s on single arc: %v", alg, err)
		}
		if got := sorted(res.Successors[1]); len(got) != 1 || got[0] != 2 {
			t.Fatalf("%s: successors of 1 = %v, want [2]", alg, got)
		}
	}
}

func TestMarkingEqualsTransitiveReduction(t *testing.T) {
	// Section 3.1: with children expanded in topological order, the
	// unmarked arcs are exactly the transitive reduction.
	for seed := int64(0); seed < 5; seed++ {
		g, db := randomDAG(t, 70+seed, 80, 4, 20)
		tr, _, err := g.Reduction()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(db, BTC, Query{}, Config{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.ArcsConsidered != int64(g.NumArcs()) {
			t.Fatalf("considered %d arcs, graph has %d", m.ArcsConsidered, g.NumArcs())
		}
		unmarked := m.ArcsConsidered - m.ArcsMarked
		if unmarked != int64(tr.NumArcs()) {
			t.Fatalf("unmarked arcs = %d, |TR| = %d", unmarked, tr.NumArcs())
		}
		if m.ListUnions != unmarked {
			t.Fatalf("unions %d != unmarked arcs %d", m.ListUnions, unmarked)
		}
	}
}

func TestMarkingAblationStillCorrect(t *testing.T) {
	g, db := randomDAG(t, 81, 80, 4, 20)
	want := refSuccessors(t, g, nil)
	res, err := Run(db, BTC, Query{}, Config{BufferPages: 8, DisableMarking: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, BTC, res.Successors, want, true, g)
	if res.Metrics.ArcsMarked != 0 {
		t.Fatal("marking disabled but arcs were marked")
	}
	// Without marking every arc is a union.
	if res.Metrics.ListUnions != res.Metrics.ArcsConsidered {
		t.Fatalf("unions %d != arcs %d with marking off",
			res.Metrics.ListUnions, res.Metrics.ArcsConsidered)
	}
}

func TestClusteringAblationStillCorrect(t *testing.T) {
	g, db := randomDAG(t, 82, 80, 4, 20)
	want := refSuccessors(t, g, nil)
	res, err := Run(db, BTC, Query{}, Config{BufferPages: 8, DisableClustering: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, BTC, res.Successors, want, true, g)
}

func TestMetricsInvariants(t *testing.T) {
	g, db := randomDAG(t, 90, 120, 5, 30)
	sources := graphgen.SourceSet(120, 8, 9)
	want := refSuccessors(t, g, sources)
	answerSize := 0
	for _, s := range want {
		answerSize += len(s)
	}
	for _, alg := range Algorithms() {
		res, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8, ILIMIT: 0.25})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		m := res.Metrics
		if m.TotalIO() != m.Restructure.Total()+m.Compute.Total() {
			t.Fatalf("%s: TotalIO mismatch", alg)
		}
		if m.TotalIO() <= 0 {
			t.Fatalf("%s: no I/O recorded", alg)
		}
		if m.ArcsMarked > m.ArcsConsidered {
			t.Fatalf("%s: marked > considered", alg)
		}
		if eff := m.SelectionEfficiency(); eff < 0 || eff > 1+1e-9 {
			t.Fatalf("%s: selection efficiency %v out of range", alg, eff)
		}
		if m.MarkingPct() < 0 || m.MarkingPct() > 100 {
			t.Fatalf("%s: marking pct %v", alg, m.MarkingPct())
		}
		if alg == SRCH && m.SelectionEfficiency() != 1 {
			t.Fatalf("SRCH selection efficiency = %v, want 1", m.SelectionEfficiency())
		}
		if m.Duplicates != m.TuplesGenerated-(m.TuplesGenerated-m.Duplicates) {
			t.Fatalf("%s: duplicate arithmetic broken", alg)
		}
		// Source tuples must equal the answer size for every algorithm.
		if m.SourceTuples != int64(answerSize) {
			t.Fatalf("%s: SourceTuples = %d, answer size = %d", alg, m.SourceTuples, answerSize)
		}
	}
}

func TestSelectionEfficiencyOrdering(t *testing.T) {
	// Section 6.3.2: SRCH is optimal (1.0); JKB2 is far better than BTC;
	// BJ at least as good as BTC.
	_, db := randomDAG(t, 91, 400, 5, 40)
	sources := graphgen.SourceSet(400, 4, 3)
	effs := map[Algorithm]float64{}
	for _, alg := range []Algorithm{BTC, BJ, JKB2, SRCH} {
		res, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		effs[alg] = res.Metrics.SelectionEfficiency()
	}
	if effs[SRCH] != 1 {
		t.Fatalf("SRCH eff = %v", effs[SRCH])
	}
	if effs[JKB2] <= effs[BTC] {
		t.Fatalf("JKB2 eff %v <= BTC eff %v", effs[JKB2], effs[BTC])
	}
	if effs[BJ] < effs[BTC]-1e-9 {
		t.Fatalf("BJ eff %v < BTC eff %v", effs[BJ], effs[BTC])
	}
}

func TestDeterministicRuns(t *testing.T) {
	_, db := randomDAG(t, 95, 100, 4, 25)
	sources := graphgen.SourceSet(100, 5, 1)
	a, err := Run(db, BTC, Query{Sources: sources}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(db, BTC, Query{Sources: sources}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.TotalIO() != b.Metrics.TotalIO() ||
		a.Metrics.TuplesGenerated != b.Metrics.TuplesGenerated {
		t.Fatal("repeated runs differ")
	}
}

func TestResultPersistedToDisk(t *testing.T) {
	// After a run the expanded source lists must be on disk, not just in
	// the buffer pool: re-reading from a fresh pool must succeed. This is
	// implicit in Run (answers are collected through a pool whose pages
	// may have been evicted), but check writes happened at all.
	_, db := randomDAG(t, 96, 100, 4, 25)
	res, err := Run(db, BTC, Query{Sources: []int32{1, 2, 3}}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Compute.Writes == 0 && res.Metrics.Restructure.Writes == 0 {
		t.Fatal("no pages were ever written")
	}
}

func TestRandomizedCrossValidation(t *testing.T) {
	// Randomized sweep: random shapes, random sources, random configs.
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(150) + 20
		f := rng.Intn(6) + 1
		l := rng.Intn(n) + 5
		g, db := randomDAG(t, int64(1000+trial), n, f, l)
		var sources []int32
		if rng.Intn(2) == 0 {
			sources = graphgen.SourceSet(n, rng.Intn(5)+1, int64(trial))
		}
		want := refSuccessors(t, g, sources)
		cfg := Config{
			BufferPages: rng.Intn(12) + 4,
			PagePolicy:  []string{"lru", "clock", "fifo"}[rng.Intn(3)],
			ListPolicy:  []string{"smallest", "largest"}[rng.Intn(2)],
			ILIMIT:      float64(rng.Intn(4)) * 0.1,
		}
		for _, alg := range Algorithms() {
			res, err := Run(db, alg, Query{Sources: sources}, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			checkAnswer(t, alg, res.Successors, want, len(sources) == 0, g)
		}
	}
}

// TestChargeIndexIOAblation: routing probes through the disk-resident
// B+-tree must preserve every answer and may only add I/O; with a warm
// root the overhead should be modest — the measured form of the paper's
// "interior index pages are free" assumption.
func TestChargeIndexIOAblation(t *testing.T) {
	g, db := randomDAG(t, 1101, 300, 4, 40)
	sources := graphgen.SourceSet(300, 5, 3)
	want := refSuccessors(t, g, sources)
	wantFull := refSuccessors(t, g, nil)
	for _, alg := range []Algorithm{BTC, BJ, SRCH, SEMI, JKB, JKB2} {
		free, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 10})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		charged, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 10, ChargeIndexIO: true})
		if err != nil {
			t.Fatalf("%s charged: %v", alg, err)
		}
		checkAnswer(t, alg, charged.Successors, want, false, g)
		if charged.Metrics.TotalIO() < free.Metrics.TotalIO() {
			t.Errorf("%s: charging index I/O reduced cost (%d < %d)",
				alg, charged.Metrics.TotalIO(), free.Metrics.TotalIO())
		}
		if charged.Metrics.TotalIO() > 3*free.Metrics.TotalIO()+50 {
			t.Errorf("%s: index overhead implausibly large (%d vs %d)",
				alg, charged.Metrics.TotalIO(), free.Metrics.TotalIO())
		}
	}
	full, err := Run(db, BTC, Query{}, Config{BufferPages: 10, ChargeIndexIO: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, BTC, full.Successors, wantFull, true, g)
}

// TestDeepPathNoOverflow: the restructuring walk is iterative, so a path
// as long as the engine's node space (successor-list ids are 16 bits on the
// page, so 65535 nodes; graph.Walk itself is tested at 200k) is walked like
// any other graph, through the list-closure driver and through Schmitz. The
// closure of a path is quadratic in its length, so the query starts 5000
// nodes from the tail: the walk's arrays span the whole path, its depth is
// what the engine can expand in a test's time.
func TestDeepPathNoOverflow(t *testing.T) {
	const n, depth = 0xFFFF, 5000
	arcs := make([]graph.Arc, 0, n-1)
	for i := int32(1); i < n; i++ {
		arcs = append(arcs, graph.Arc{From: i, To: i + 1})
	}
	db := NewDatabase(n, arcs)
	src := int32(n - depth)
	for _, alg := range []Algorithm{BTC, SCHMITZ} {
		res, err := Run(db, alg, Query{Sources: []int32{src}}, Config{BufferPages: 10})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got := res.Successors[src]; len(got) != depth || res.Metrics.MagicNodes != depth+1 {
			t.Errorf("%s: %d successors over a magic graph of %d nodes, want %d and %d",
				alg, len(got), res.Metrics.MagicNodes, depth, depth+1)
		}
	}
}
