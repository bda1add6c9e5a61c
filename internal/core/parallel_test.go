package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tcstudy/internal/graphgen"
)

func TestPartitionSources(t *testing.T) {
	src := []int32{1, 2, 3, 4, 5, 6, 7}
	cases := []struct {
		workers int
		want    [][]int32
	}{
		{2, [][]int32{{1, 2, 3}, {4, 5, 6, 7}}},
		{3, [][]int32{{1, 2}, {3, 4}, {5, 6, 7}}},
		{7, [][]int32{{1}, {2}, {3}, {4}, {5}, {6}, {7}}},
		{20, [][]int32{{1}, {2}, {3}, {4}, {5}, {6}, {7}}},
	}
	for _, c := range cases {
		got := partitionSources(src, c.workers)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("partitionSources(7 sources, %d workers) = %v, want %v", c.workers, got, c.want)
		}
		total := 0
		for _, p := range got {
			if len(p) == 0 {
				t.Errorf("workers=%d produced an empty partition", c.workers)
			}
			total += len(p)
		}
		if total != len(src) {
			t.Errorf("workers=%d covered %d of %d sources", c.workers, total, len(src))
		}
	}
}

// TestParallelSourcesMatchAnswers: a partitioned run must return exactly
// the serial run's successor sets, for every algorithm that supports PTC.
func TestParallelSourcesMatchAnswers(t *testing.T) {
	_, db := randomDAG(t, 2001, 300, 4, 30)
	sources := graphgen.SourceSet(300, 8, 7)
	for _, alg := range []Algorithm{BTC, BJ, SRCH, SPN, JKB2, HYB, SEMI, SCHMITZ} {
		serial, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8, ILIMIT: 0.25})
		if err != nil {
			t.Fatalf("%s serial: %v", alg, err)
		}
		par, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8, ILIMIT: 0.25, Parallelism: 4})
		if err != nil {
			t.Fatalf("%s parallel: %v", alg, err)
		}
		if len(par.Successors) != len(serial.Successors) {
			t.Fatalf("%s: parallel answered %d sources, serial %d", alg, len(par.Successors), len(serial.Successors))
		}
		for s, want := range serial.Successors {
			got := par.Successors[s]
			if !sameSet(got, want) {
				t.Errorf("%s: successors of %d differ: parallel %v, serial %v", alg, s, got, want)
			}
		}
		// The answer-bearing tuple count is partition-invariant: every
		// source's expanded list is produced by exactly one worker.
		if par.Metrics.SourceTuples != serial.Metrics.SourceTuples {
			t.Errorf("%s: parallel SourceTuples %d != serial %d",
				alg, par.Metrics.SourceTuples, serial.Metrics.SourceTuples)
		}
	}
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int32(nil), a...)
	bs := append([]int32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return reflect.DeepEqual(as, bs)
}

// TestParallelismIgnoredWhenIneligible: CTC and single-source queries run
// the serial engine bit-for-bit no matter what Parallelism asks for, and so
// does a multi-source query of the matrix family: Blocked Warren closes the
// whole n×n matrix whatever the source set, so partitioning its sources
// would repeat the entire closure once per worker.
func TestParallelismIgnoredWhenIneligible(t *testing.T) {
	_, db := randomDAG(t, 2002, 120, 3, 20)
	for _, tc := range []struct {
		alg Algorithm
		q   Query
	}{
		{BTC, Query{}},
		{BTC, Query{Sources: []int32{7}}},
		{WARREN, Query{Sources: []int32{7, 30, 64, 101}}},
	} {
		serial, err := Run(db, tc.alg, tc.q, Config{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(db, tc.alg, tc.q, Config{BufferPages: 8, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqualModuloTime(serial.Metrics, par.Metrics) {
			t.Errorf("%s query %v: Parallelism changed an ineligible run's metrics:\n%s",
				tc.alg, tc.q, diffLines(goldenRecord(serial.Metrics), goldenRecord(par.Metrics)))
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

// TestParallelTempFilesReleased: every worker's temporary files are
// reclaimed when the parallel run returns.
func TestParallelTempFilesReleased(t *testing.T) {
	_, db := randomDAG(t, 2003, 200, 4, 25)
	baseFiles := db.disk.NumFiles()
	if _, err := Run(db, BTC, Query{Sources: graphgen.SourceSet(200, 10, 1)},
		Config{BufferPages: 8, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	for id := baseFiles; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(fileID(id)); n != 0 {
			t.Fatalf("temp file %d still holds %d pages", id, n)
		}
	}
}

// TestConcurrentStatsByteIdentical is the striping contract of this PR,
// meant for -race: a flood of concurrent queries (including parallel
// multi-source ones) must produce metric records byte-identical to their
// solo-run references — striping, sealing and zero-copy views may not
// perturb a single counter.
func TestConcurrentStatsByteIdentical(t *testing.T) {
	_, db := randomDAG(t, 2004, 300, 4, 30)
	shapes := []Request{
		{Alg: BTC, Query: Query{Sources: graphgen.SourceSet(300, 4, 1)}, Cfg: Config{BufferPages: 6}},
		{Alg: SPN, Query: Query{Sources: graphgen.SourceSet(300, 3, 2)}, Cfg: Config{BufferPages: 8}},
		{Alg: SRCH, Query: Query{Sources: graphgen.SourceSet(300, 2, 3)}, Cfg: Config{BufferPages: 5}},
		{Alg: BTC, Query: Query{Sources: graphgen.SourceSet(300, 6, 4)}, Cfg: Config{BufferPages: 6, Parallelism: 3}},
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
