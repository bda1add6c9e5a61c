package core

import (
	"fmt"
	"testing"

	"tcstudy/internal/graphgen"
)

func TestConcurrentMatchesSerial(t *testing.T) {
	g, db := randomDAG(t, 1001, 250, 4, 40)
	baseFiles := db.disk.NumFiles() // persistent files: relations + indexes
	var reqs []Request
	type expectation struct {
		io      int64
		tuples  int64
		sources []int32
	}
	var want []expectation
	algs := []Algorithm{BTC, BJ, SRCH, SPN, JKB2, SEMI, WARREN, HYB}
	for i, alg := range algs {
		sources := graphgen.SourceSet(250, 3+i, int64(i))
		cfg := Config{BufferPages: 6 + i, ILIMIT: 0.25}
		// Serial reference first.
		res, err := Run(db, alg, Query{Sources: sources}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, expectation{
			io:      res.Metrics.TotalIO(),
			tuples:  res.Metrics.DistinctTuples,
			sources: sources,
		})
		reqs = append(reqs, Request{Alg: alg, Query: Query{Sources: sources}, Cfg: cfg})
	}

	resps := RunConcurrent(db, reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses", len(resps))
	}
	wantSets := refSuccessors(t, g, nil) // superset reference per node
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, reqs[i].Alg, r.Err)
		}
		m := r.Result.Metrics
		if m.TotalIO() != want[i].io {
			t.Errorf("request %d (%s): concurrent I/O %d != serial %d",
				i, reqs[i].Alg, m.TotalIO(), want[i].io)
		}
		if m.DistinctTuples != want[i].tuples {
			t.Errorf("request %d (%s): tuples %d != serial %d",
				i, reqs[i].Alg, m.DistinctTuples, want[i].tuples)
		}
		for _, s := range want[i].sources {
			if len(r.Result.Successors[s]) != len(wantSets[s]) {
				t.Errorf("request %d (%s): wrong successor count for %d",
					i, reqs[i].Alg, s)
			}
		}
	}

	// The batch's temporary files are gone.
	for id := baseFiles; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(fileID(id)); n != 0 {
			t.Fatalf("temp file %d still holds %d pages", id, n)
		}
	}
}

func TestConcurrentErrorsIsolated(t *testing.T) {
	_, db := randomDAG(t, 1002, 100, 3, 20)
	resps := RunConcurrent(db, []Request{
		{Alg: BTC, Query: Query{}, Cfg: Config{BufferPages: 8}},
		{Alg: Algorithm("nope"), Query: Query{}, Cfg: Config{BufferPages: 8}},
		{Alg: BTC, Query: Query{Sources: []int32{999}}, Cfg: Config{BufferPages: 8}},
		{Alg: SRCH, Query: Query{Sources: []int32{5}}, Cfg: Config{BufferPages: 2}},
	})
	if resps[0].Err != nil {
		t.Fatalf("valid request failed: %v", resps[0].Err)
	}
	for i := 1; i < 4; i++ {
		if resps[i].Err == nil {
			t.Fatalf("invalid request %d succeeded", i)
		}
	}
}

func TestConcurrentEmptyBatch(t *testing.T) {
	_, db := randomDAG(t, 1003, 20, 2, 5)
	if resps := RunConcurrent(db, nil); len(resps) != 0 {
		t.Fatalf("empty batch returned %d responses", len(resps))
	}
}

func TestConcurrentManyIdenticalQueries(t *testing.T) {
	// Hammer one database with identical queries: all must agree.
	_, db := randomDAG(t, 1004, 200, 4, 30)
	q := Query{Sources: []int32{3, 50, 120}}
	cfg := Config{BufferPages: 8}
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{Alg: BTC, Query: q, Cfg: cfg})
	}
	resps := RunConcurrent(db, reqs)
	first := resps[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	for i, r := range resps[1:] {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i+1, r.Err)
		}
		if r.Result.Metrics.TotalIO() != first.Result.Metrics.TotalIO() {
			t.Fatalf("run %d I/O %d differs from run 0's %d",
				i+1, r.Result.Metrics.TotalIO(), first.Result.Metrics.TotalIO())
		}
		for s, succ := range first.Result.Successors {
			if len(r.Result.Successors[s]) != len(succ) {
				t.Fatalf("run %d disagrees on node %d", i+1, s)
			}
		}
	}
}

// TestConcurrentStressSmallBuffers floods the engine with far more
// simultaneous requests than any single batch the study ran — a mixed
// algorithm load over deliberately tiny buffer pools, the regime where
// page replacement churns hardest — and checks every per-request metric
// record against its solo-run reference. Run under -race (CI does) it also
// stresses the shared disk, catalog and temp-file paths for data races.
func TestConcurrentStressSmallBuffers(t *testing.T) {
	_, db := randomDAG(t, 1005, 400, 4, 30)
	baseFiles := db.disk.NumFiles()

	// A pool of distinct request shapes; each is solo-run first to pin the
	// reference record.
	type shape struct {
		req    Request
		io     int64
		tuples int64
		gen    int64
	}
	algs := []Algorithm{BTC, BJ, SRCH, SPN, JKB2, HYB, SEMI, SCHMITZ}
	var shapes []shape
	for i, alg := range algs {
		req := Request{
			Alg:   alg,
			Query: Query{Sources: graphgen.SourceSet(400, 2+i%4, int64(i))},
			Cfg:   Config{BufferPages: 4 + i%3, ILIMIT: 0.25},
		}
		res, err := Run(db, req.Alg, req.Query, req.Cfg)
		if err != nil {
			t.Fatalf("solo %s: %v", alg, err)
		}
		shapes = append(shapes, shape{
			req:    req,
			io:     res.Metrics.TotalIO(),
			tuples: res.Metrics.DistinctTuples,
			gen:    res.Metrics.TuplesGenerated,
		})
	}

	// 6 simultaneous instances of every shape in one batch.
	const copies = 6
	var reqs []Request
	for c := 0; c < copies; c++ {
		for _, sh := range shapes {
			reqs = append(reqs, sh.req)
		}
	}
	resps := RunConcurrent(db, reqs)
	for i, r := range resps {
		sh := shapes[i%len(shapes)]
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, sh.req.Alg, r.Err)
		}
		m := r.Result.Metrics
		if m.TotalIO() != sh.io {
			t.Errorf("request %d (%s): I/O %d != solo %d", i, sh.req.Alg, m.TotalIO(), sh.io)
		}
		if m.DistinctTuples != sh.tuples {
			t.Errorf("request %d (%s): tuples %d != solo %d", i, sh.req.Alg, m.DistinctTuples, sh.tuples)
		}
		if m.TuplesGenerated != sh.gen {
			t.Errorf("request %d (%s): generated %d != solo %d", i, sh.req.Alg, m.TuplesGenerated, sh.gen)
		}
	}

	// The flood's temporary storage is fully released.
	for id := baseFiles; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(fileID(id)); n != 0 {
			t.Fatalf("temp file %d still holds %d pages", id, n)
		}
	}
}

// metricsEqualModuloTime compares two metric records byte-for-byte except
// the wall-clock fields, which legitimately vary run to run.
func metricsEqualModuloTime(a, b Metrics) bool {
	a.RestructureTime, b.RestructureTime = 0, 0
	a.ComputeTime, b.ComputeTime = 0, 0
	return a == b
}

// TestConcurrentStatsByteIdentical is the striping contract, meant for
// -race: a flood of concurrent queries must produce metric records
// byte-identical to their solo-run references — striping, sealing and
// zero-copy views may not perturb a single counter.
func TestConcurrentStatsByteIdentical(t *testing.T) {
	_, db := randomDAG(t, 2004, 300, 4, 30)
	shapes := []Request{
		{Alg: BTC, Query: Query{Sources: graphgen.SourceSet(300, 4, 1)}, Cfg: Config{BufferPages: 6}},
		{Alg: SPN, Query: Query{Sources: graphgen.SourceSet(300, 3, 2)}, Cfg: Config{BufferPages: 8}},
		{Alg: SRCH, Query: Query{Sources: graphgen.SourceSet(300, 2, 3)}, Cfg: Config{BufferPages: 5}},
		{Alg: HYB, Query: Query{}, Cfg: Config{BufferPages: 10, ILIMIT: 0.25}},
	}
	want := make([]Metrics, len(shapes))
	for i, sh := range shapes {
		res, err := Run(db, sh.Alg, sh.Query, sh.Cfg)
		if err != nil {
			t.Fatalf("solo %s: %v", sh.Alg, err)
		}
		want[i] = res.Metrics
	}
	const copies = 4
	var reqs []Request
	for c := 0; c < copies; c++ {
		reqs = append(reqs, shapes...)
	}
	resps := RunConcurrent(db, reqs)
	for i, r := range resps {
		ref := want[i%len(shapes)]
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if !metricsEqualModuloTime(r.Result.Metrics, ref) {
			t.Errorf("request %d (%s): concurrent metrics differ from solo:\nconcurrent %+v\nsolo       %+v",
				i, reqs[i].Alg, r.Result.Metrics, ref)
		}
	}
}

// BenchmarkConcurrentScaling measures batch throughput as the goroutine
// count grows over one shared database. With striped, sealed storage the
// queries share no mutable state, so throughput should scale with cores
// (the pre-striping global mutex kept this flat). Run with
// -cpu matching the host and compare ns/op across the goroutine counts.
func BenchmarkConcurrentScaling(b *testing.B) {
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 400, OutDegree: 4, Locality: 30, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	db := NewDatabase(400, arcs)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			// Each iteration runs `workers` identical queries concurrently
			// and is charged for all of them, so ns/op divided by workers is
			// the per-query latency; if throughput scales, ns/op stays ~flat
			// as workers grow.
			reqs := make([]Request, workers)
			for i := range reqs {
				reqs[i] = Request{
					Alg:   BTC,
					Query: Query{Sources: graphgen.SourceSet(400, 4, int64(i))},
					Cfg:   Config{BufferPages: 8},
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range RunConcurrent(db, reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*workers), "ns/query")
		})
	}
}
