package tcstudy

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"

	"tcstudy/internal/core"
)

func sorted(vals []int32) []int32 {
	out := append([]int32(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQuickstartPath(t *testing.T) {
	g, err := Generate(200, 4, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsAcyclic() {
		t.Fatal("generated graph not acyclic")
	}
	db := NewDB(g)
	res, err := db.FullClosure(BTC, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalIO() <= 0 {
		t.Fatal("no I/O measured")
	}
	var total int
	for _, s := range res.Successors {
		total += len(s)
	}
	st, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int64(total) != st.ClosureSize {
		t.Fatalf("closure size %d != stats %d", total, st.ClosureSize)
	}
}

func TestSuccessorsAcrossAlgorithms(t *testing.T) {
	g, err := Generate(150, 3, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	sources := SourceSet(150, 4, 7)
	var want map[int32][]int32
	for _, alg := range Algorithms() {
		res, err := db.Successors(alg, sources, Config{BufferPages: 8, ILIMIT: 0.2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		got := map[int32][]int32{}
		for k, v := range res.Successors {
			vv := append([]int32(nil), v...)
			sort.Slice(vv, func(i, j int) bool { return vv[i] < vv[j] })
			got[k] = vv
		}
		if want == nil {
			want = got
			continue
		}
		for k, w := range want {
			gv := got[k]
			if len(gv) != len(w) {
				t.Fatalf("%s: node %d: %d successors, want %d", alg, k, len(gv), len(w))
			}
			for i := range w {
				if gv[i] != w[i] {
					t.Fatalf("%s: node %d differs", alg, k)
				}
			}
		}
	}
}

func TestRunRejectsCyclicGraph(t *testing.T) {
	g := NewGraph(3, []Arc{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}})
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
	// Every algorithm answers the cycle through every façade entry that
	// takes one, the DAG-only ones on the condensation: node 2 of a 3-cycle
	// reaches all three nodes, itself included.
	db := NewDB(g)
	sess, err := db.NewSession(Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Sources: []int32{2}}
	for _, alg := range Algorithms() {
		for name, run := range map[string]func() (*Result, error){
			"Run":         func() (*Result, error) { return db.Run(alg, q, Config{BufferPages: 8}) },
			"Session.Run": func() (*Result, error) { return sess.Run(alg, q) },
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("%s via %s on a cyclic graph: %v", alg, name, err)
			}
			if got := sorted(res.Successors[2]); !slices.Equal(got, []int32{1, 2, 3}) {
				t.Errorf("%s via %s: node 2 of a 3-cycle reaches %v", alg, name, got)
			}
		}
	}
	// A path aggregate is the one refusal left: over a cycle it is unbounded.
	_, pathErr := db.Paths(MinHops, nil, Config{BufferPages: 8})
	var refused *core.InvalidInputError
	if !errors.As(pathErr, &refused) || !strings.Contains(refused.Reason, "needs a DAG") {
		t.Errorf("Paths on a cyclic graph: %v, want an InvalidInputError saying it needs a DAG", pathErr)
	}
}

func TestAdvise(t *testing.T) {
	narrow := GraphStats{W: 50}
	wide := GraphStats{W: 500}
	n := 2000
	if got := Advise(narrow, n, 0); got != BTC {
		t.Fatalf("full closure advice = %s, want btc", got)
	}
	if got := Advise(narrow, n, 2); got != SRCH {
		t.Fatalf("2-source advice = %s, want srch", got)
	}
	if got := Advise(narrow, n, 50); got != JKB2 {
		t.Fatalf("narrow 50-source advice = %s, want jkb2", got)
	}
	if got := Advise(wide, n, 50); got != BTC {
		t.Fatalf("wide 50-source advice = %s, want btc", got)
	}
	if got := Advise(narrow, n, 1500); got != BTC {
		t.Fatalf("low-selectivity advice = %s, want btc", got)
	}
}

func TestAdviseAgreesWithMeasurement(t *testing.T) {
	// On a narrow deep graph with moderate selectivity, the advisor picks
	// JKB2 and JKB2 must indeed beat BTC on measured I/O (Table 4's
	// narrow end).
	g, err := Generate(1000, 5, 10, 3) // G4-like: narrow
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	nSources := 30
	alg := Advise(st, g.N(), nSources)
	if alg != JKB2 {
		t.Skipf("advisor picked %s (W=%.0f); width threshold not hit on this instance", alg, st.W)
	}
	db := NewDB(g)
	sources := SourceSet(g.N(), nSources, 5)
	rj, err := db.Successors(JKB2, sources, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.Successors(BTC, sources, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rj.Metrics.TotalIO() >= rb.Metrics.TotalIO() {
		t.Fatalf("advisor chose JKB2 but it cost %d vs BTC %d",
			rj.Metrics.TotalIO(), rb.Metrics.TotalIO())
	}
}

func TestPredecessors(t *testing.T) {
	g := NewGraph(5, []Arc{
		{From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
	})
	db := NewDB(g)
	res, err := db.Predecessors(BTC, []int32{4}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := sorted(res.Successors[4])
	want := []int32{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("predecessors of 4 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predecessors of 4 = %v, want %v", got, want)
		}
	}
	// The reversed database is cached and reused.
	if db.reversed == nil {
		t.Fatal("reversed DB not cached")
	}
	res2, err := db.Predecessors(SRCH, []int32{5}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Successors[5]) != 4 {
		t.Fatalf("predecessors of 5 = %v", res2.Successors[5])
	}
}

func TestPredecessorsAgreeWithSuccessors(t *testing.T) {
	g, err := Generate(120, 3, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	full, err := db.FullClosure(BTC, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	// (u, v) in closure  <=>  u in predecessors(v).
	target := int32(60)
	pres, err := db.Predecessors(BTC, []int32{target}, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	predSet := map[int32]bool{}
	for _, p := range pres.Successors[target] {
		predSet[p] = true
	}
	for u := int32(1); u <= int32(g.N()); u++ {
		reaches := false
		for _, v := range full.Successors[u] {
			if v == target {
				reaches = true
				break
			}
		}
		if reaches != predSet[u] {
			t.Fatalf("disagreement at u=%d: forward says %v, backward says %v",
				u, reaches, predSet[u])
		}
	}
}

func TestDBSaveOpenRoundTrip(t *testing.T) {
	g, err := Generate(120, 3, 25, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Graph().N() != g.N() || re.Graph().NumArcs() != g.NumArcs() {
		t.Fatalf("restored graph %d/%d, want %d/%d",
			re.Graph().N(), re.Graph().NumArcs(), g.N(), g.NumArcs())
	}
	a, err := db.FullClosure(BTC, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.FullClosure(BTC, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.TotalIO() != b.Metrics.TotalIO() {
		t.Fatalf("I/O differs after reopen: %d vs %d",
			a.Metrics.TotalIO(), b.Metrics.TotalIO())
	}
	for k, v := range a.Successors {
		if len(b.Successors[k]) != len(v) {
			t.Fatalf("successors of %d differ after reopen", k)
		}
	}
	// Predecessors work on a restored DB (needs the reconstructed graph).
	if _, err := re.Predecessors(BTC, []int32{50}, Config{BufferPages: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFacade(t *testing.T) {
	g, err := Generate(200, 4, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	s, err := db.NewSession(Config{BufferPages: 30})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Successors(SRCH, []int32{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Successors(SRCH, []int32{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.TotalIO() >= cold.Metrics.TotalIO() {
		t.Fatalf("warm I/O %d not below cold %d",
			warm.Metrics.TotalIO(), cold.Metrics.TotalIO())
	}
	if _, err := s.FullClosure(BTC); err != nil {
		t.Fatal(err)
	}
}

func TestMagicGraphStatsInMetrics(t *testing.T) {
	g, err := Generate(300, 4, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	res, err := db.FullClosure(BTC, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// For a full closure the magic graph is the whole graph: the free
	// rectangle model must match the analytic one.
	if m.MagicNodes != int64(g.N()) || m.MagicArcs != int64(g.NumArcs()) {
		t.Fatalf("magic graph %d/%d, want %d/%d", m.MagicNodes, m.MagicArcs, g.N(), g.NumArcs())
	}
	if diff := m.MagicH - st.H; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("MagicH %v != analytic H %v", m.MagicH, st.H)
	}
	if diff := m.MagicW - st.W; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("MagicW %v != analytic W %v", m.MagicW, st.W)
	}
	// A selection sees a smaller magic graph.
	sel, err := db.Successors(BTC, []int32{250}, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Metrics.MagicNodes >= m.MagicNodes {
		t.Fatalf("selection magic graph %d nodes >= full graph %d",
			sel.Metrics.MagicNodes, m.MagicNodes)
	}
	// SRCH skips restructuring: no magic stats.
	srch, err := db.Successors(SRCH, []int32{250}, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if srch.Metrics.MagicNodes != 0 {
		t.Fatalf("SRCH reported magic stats: %d", srch.Metrics.MagicNodes)
	}
}

func TestWeightedDBFacade(t *testing.T) {
	g := NewGraph(4, []Arc{
		{From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4},
	})
	db, err := NewWeightedDB(g, func(a Arc) int32 { return a.From + a.To })
	if err != nil {
		t.Fatal(err)
	}
	if !db.Weighted() {
		t.Fatal("Weighted() = false")
	}
	res, err := db.Paths(MinWeight, []int32{1}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 1->2->4 costs 3+6=9; 1->3->4 costs 4+7=11.
	if res.Values[1][4] != 9 {
		t.Fatalf("minweight(1,4) = %d, want 9", res.Values[1][4])
	}
	// Reachability still works on the weighted DB.
	r2, err := db.FullClosure(BTC, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Successors[1]) != 3 {
		t.Fatalf("successors of 1 = %v", r2.Successors[1])
	}
	// Unweighted DBs refuse weighted aggregates.
	plain := NewDB(g)
	if _, err := plain.Paths(MinWeight, nil, Config{BufferPages: 8}); err == nil {
		t.Fatal("MinWeight accepted on unweighted DB")
	}
}

func TestRunConcurrentFacade(t *testing.T) {
	g, err := Generate(200, 4, 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	reqs := []Request{
		{Alg: BTC, Query: Query{}, Cfg: Config{BufferPages: 8}},
		{Alg: SRCH, Query: Query{Sources: []int32{5}}, Cfg: Config{BufferPages: 8}},
		{Alg: JKB2, Query: Query{Sources: []int32{5, 9}}, Cfg: Config{BufferPages: 8}},
	}
	resps := db.RunConcurrent(reqs)
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	// SRCH and JKB2 agree on node 5's successors.
	if len(resps[1].Result.Successors[5]) != len(resps[2].Result.Successors[5]) {
		t.Fatal("concurrent algorithms disagree")
	}
	// On a cyclic DB each request takes its own algorithm's route: BTC runs
	// on the condensation, SRCH beside it on the graph, and both answer.
	cyc := NewDB(NewGraph(2, []Arc{{From: 1, To: 2}, {From: 2, To: 1}}))
	cresps := cyc.RunConcurrent([]Request{reqs[0], {Alg: SRCH, Query: Query{Sources: []int32{1}}, Cfg: Config{BufferPages: 8}}})
	for i, r := range cresps {
		if r.Err != nil || !slices.Equal(sorted(r.Result.Successors[1]), []int32{1, 2}) {
			t.Fatalf("request %d on a 2-cycle: %+v", i, r)
		}
	}
}

func TestPlanFacade(t *testing.T) {
	g, err := Generate(500, 5, 10, 2) // narrow, deep
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g)
	ests, err := db.Plan(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) < 6 {
		t.Fatalf("only %d estimates", len(ests))
	}
	// A 500-node core fits the bit-matrix threshold outright, and its one
	// relation scan undercuts even a selective per-source search.
	if ests[0].Alg != BITM {
		t.Fatalf("3-source plan chose %s, expected bitmatrix on a core that fits the kernel", ests[0].Alg)
	}
	// SRCH must still lead the list-based candidates on a selective query.
	for _, e := range ests[1:] {
		if e.Alg == SRCH {
			break
		}
		if e.Alg != BITM {
			t.Fatalf("3-source plan ranks %s above srch", e.Alg)
		}
	}
	// The planner's choice must actually be competitive when measured.
	res, err := db.Successors(ests[0].Alg, SourceSet(500, 3, 1), Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	resBTC, err := db.Successors(BTC, SourceSet(500, 3, 1), Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalIO() > resBTC.Metrics.TotalIO() {
		t.Fatalf("planned algorithm cost %d, default BTC %d",
			res.Metrics.TotalIO(), resBTC.Metrics.TotalIO())
	}
	// A cyclic DB is planned on its condensation.
	cyc := NewDB(NewGraph(2, []Arc{{From: 1, To: 2}, {From: 2, To: 1}}))
	if ests, err := cyc.Plan(1, 10); err != nil || len(ests) == 0 {
		t.Fatalf("cyclic plan: %v, %v", ests, err)
	}
}

func TestSchmitzFacadeOnCyclicGraph(t *testing.T) {
	g := NewGraph(4, []Arc{
		{From: 1, To: 2}, {From: 2, To: 1}, {From: 2, To: 3}, {From: 3, To: 4},
	})
	db := NewDB(g)
	// SCHMITZ handles the cycle natively.
	res, err := db.Run(SCHMITZ, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := sorted(res.Successors[1])
	want := []int32{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("successors of 1 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("successors of 1 = %v, want %v", got, want)
		}
	}
	// And it agrees with BTC, which runs on the condensation.
	cc, err := db.Run(BTC, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for x := int32(1); x <= 4; x++ {
		if !slices.Equal(sorted(cc.Successors[x]), sorted(res.Successors[x])) {
			t.Fatalf("schmitz and condensation disagree at node %d", x)
		}
	}
}
