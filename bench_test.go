// Benchmarks of what the paper's tables and figures do not cover: the
// storage substrates, the union inner loop, the related-work baselines and
// this repository's extensions, on reduced-size study graphs so
// `go test -bench .` stays quick. The paper's own cells are run at full
// scale, with shape assertions, by internal/experiments (cmd/tcbench) and
// timed by bench/'s paper_grid workload. Page I/O — the paper's primary
// metric — is reported alongside time via ReportMetric.
package tcstudy_test

import (
	"sync"
	"testing"

	"tcstudy"
	"tcstudy/internal/core"
	"tcstudy/internal/experiments"
	"tcstudy/internal/graphgen"
)

// benchNodes keeps benchmark graphs at 1/4 study scale with proportionally
// scaled localities, preserving every family's shape.
const benchNodes = 500

type benchGraph struct {
	g  *tcstudy.Graph
	db *tcstudy.DB
}

var (
	benchMu     sync.Mutex
	benchGraphs = map[string]*benchGraph{}
)

// family returns a cached reduced-scale instance of one study family.
func family(b *testing.B, name string) *benchGraph {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if bg, ok := benchGraphs[name]; ok {
		return bg
	}
	var spec experiments.GraphSpec
	for _, s := range experiments.StudyGraphs() {
		if s.Name == name {
			spec = s
		}
	}
	if spec.Name == "" {
		b.Fatalf("unknown family %s", name)
	}
	l := spec.Locality * benchNodes / 2000
	if l < 2 {
		l = 2
	}
	g, err := tcstudy.Generate(benchNodes, spec.OutDegree, l, 1)
	if err != nil {
		b.Fatal(err)
	}
	bg := &benchGraph{g: g, db: tcstudy.NewDB(g)}
	benchGraphs[name] = bg
	return bg
}

// runCell executes one (graph, algorithm, query, config) cell b.N times and
// reports page I/O.
func runCell(b *testing.B, name string, alg tcstudy.Algorithm, nSources int, cfg tcstudy.Config) {
	b.Helper()
	bg := family(b, name)
	var sources []int32
	if nSources > 0 {
		sources = graphgen.SourceSet(benchNodes, nSources, 3)
	}
	var io int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bg.db.Run(alg, tcstudy.Query{Sources: sources}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		io = res.Metrics.TotalIO()
	}
	b.ReportMetric(float64(io), "pageIO/op")
}

// BenchmarkSubstrates isolates the storage substrates under the closure
// workload: restructuring only (relation probes + successor list writes).
func BenchmarkSubstrates(b *testing.B) {
	b.Run("restructure", func(b *testing.B) {
		// SRCH with one source node exercises probe I/O with no list
		// expansion to speak of.
		runCell(b, "G5", tcstudy.SRCH, 1, tcstudy.Config{BufferPages: 10})
	})
}

// BenchmarkCoreUnion isolates the successor-list union inner loop by
// running the expansion of a dense CTC with a pool large enough to stay
// memory-resident.
func BenchmarkCoreUnion(b *testing.B) {
	bg := family(b, "G8")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bg.db.Run(core.BTC, tcstudy.Query{}, tcstudy.Config{BufferPages: 64})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkRelatedWorkBaselines measures the iterative and matrix
// baselines against BTC on one family (the relatedwork experiment's cells).
func BenchmarkRelatedWorkBaselines(b *testing.B) {
	for _, alg := range []tcstudy.Algorithm{tcstudy.BTC, tcstudy.SEMI, tcstudy.WARREN} {
		b.Run(string(alg)+"/ctc", func(b *testing.B) {
			runCell(b, "G2", alg, 0, tcstudy.Config{BufferPages: 10})
		})
		b.Run(string(alg)+"/ptc", func(b *testing.B) {
			runCell(b, "G2", alg, 10, tcstudy.Config{BufferPages: 10})
		})
	}
}

// BenchmarkPathAggregates measures the generalized-closure extension.
func BenchmarkPathAggregates(b *testing.B) {
	for _, agg := range []tcstudy.PathAggregate{tcstudy.MinHops, tcstudy.MaxHops, tcstudy.PathCount} {
		b.Run(string(agg), func(b *testing.B) {
			bg := family(b, "G5")
			b.ResetTimer()
			var io int64
			for i := 0; i < b.N; i++ {
				res, err := bg.db.Paths(agg, nil, tcstudy.Config{BufferPages: 20})
				if err != nil {
					b.Fatal(err)
				}
				io = res.Metrics.TotalIO()
			}
			b.ReportMetric(float64(io), "pageIO/op")
		})
	}
}

// BenchmarkSessionWarmVsCold measures the warm-buffer session against
// per-query cold pools.
func BenchmarkSessionWarmVsCold(b *testing.B) {
	bg := family(b, "G5")
	sources := graphgen.SourceSet(benchNodes, 5, 3)
	b.Run("cold", func(b *testing.B) {
		var io int64
		for i := 0; i < b.N; i++ {
			res, err := bg.db.Successors(tcstudy.SRCH, sources, tcstudy.Config{BufferPages: 40})
			if err != nil {
				b.Fatal(err)
			}
			io = res.Metrics.TotalIO()
		}
		b.ReportMetric(float64(io), "pageIO/op")
	})
	b.Run("warm", func(b *testing.B) {
		s, err := bg.db.NewSession(tcstudy.Config{BufferPages: 40})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Successors(tcstudy.SRCH, sources); err != nil {
			b.Fatal(err) // prime the pool
		}
		b.ResetTimer()
		var io int64
		for i := 0; i < b.N; i++ {
			res, err := s.Successors(tcstudy.SRCH, sources)
			if err != nil {
				b.Fatal(err)
			}
			io = res.Metrics.TotalIO()
		}
		b.ReportMetric(float64(io), "pageIO/op")
	})
}

// BenchmarkSchmitzCyclic measures the native cyclic closure (Schmitz)
// against the condensation pipeline on a cyclic graph.
func BenchmarkSchmitzCyclic(b *testing.B) {
	// A cyclic variant of the G5 family: forward DAG arcs plus back arcs.
	base := family(b, "G5")
	arcs := base.g.Arcs()
	n := benchNodes
	for i := 0; i < len(arcs)/10; i++ {
		arcs = append(arcs, tcstudy.Arc{
			From: arcs[i].To, To: arcs[i].From, // a back arc closing a cycle
		})
	}
	g := tcstudy.NewGraph(n, arcs)
	db := tcstudy.NewDB(g)
	b.Run("schmitz", func(b *testing.B) {
		var io int64
		for i := 0; i < b.N; i++ {
			res, err := db.Run(tcstudy.SCHMITZ, tcstudy.Query{}, tcstudy.Config{BufferPages: 20})
			if err != nil {
				b.Fatal(err)
			}
			io = res.Metrics.TotalIO()
		}
		b.ReportMetric(float64(io), "pageIO/op")
	})
	b.Run("condense+btc", func(b *testing.B) {
		var io int64
		for i := 0; i < b.N; i++ {
			res, err := db.FullClosure(tcstudy.BTC, tcstudy.Config{BufferPages: 20})
			if err != nil {
				b.Fatal(err)
			}
			io = res.Metrics.TotalIO()
		}
		b.ReportMetric(float64(io), "pageIO/op")
	})
}

// BenchmarkBitMatrixClosure measures the dense-core bit-matrix kernel
// against BTC on the workload it was built for: a full closure over a
// dense DAG whose condensation fits the in-memory threshold. The kernel's
// word-parallel row unions (64 reachability bits per OR) are the entire
// compute phase; BTC pays per-tuple successor-list work for the same
// answer.
func BenchmarkBitMatrixClosure(b *testing.B) {
	// Dense core: 500 nodes, out-degree uniform on [0,16], full locality.
	// Density ≈ |A|/n² sits well above the kernel's MinDensity gate.
	g, err := tcstudy.Generate(benchNodes, 12, benchNodes, 11)
	if err != nil {
		b.Fatal(err)
	}
	db := tcstudy.NewDB(g)
	for _, tc := range []struct {
		name string
		alg  tcstudy.Algorithm
		cfg  tcstudy.Config
	}{
		{"btc", tcstudy.BTC, tcstudy.Config{BufferPages: 20}},
		{"bitmatrix", tcstudy.BITM, tcstudy.Config{BufferPages: 20}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var io int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Run(tc.alg, tcstudy.Query{}, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				io = res.Metrics.TotalIO()
			}
			b.ReportMetric(float64(io), "pageIO/op")
		})
	}
}

// BenchmarkPlanner measures profile construction plus estimation.
func BenchmarkPlanner(b *testing.B) {
	bg := family(b, "G5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bg.db.Plan(5, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrent measures an 8-query mixed batch.
func BenchmarkConcurrent(b *testing.B) {
	bg := family(b, "G5")
	sources := graphgen.SourceSet(benchNodes, 4, 3)
	reqs := []tcstudy.Request{
		{Alg: tcstudy.BTC, Query: tcstudy.Query{}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.SRCH, Query: tcstudy.Query{Sources: sources}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.JKB2, Query: tcstudy.Query{Sources: sources}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.BJ, Query: tcstudy.Query{Sources: sources}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.SPN, Query: tcstudy.Query{}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.SCHMITZ, Query: tcstudy.Query{}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.WARREN, Query: tcstudy.Query{}, Cfg: tcstudy.Config{BufferPages: 10}},
		{Alg: tcstudy.SEMI, Query: tcstudy.Query{Sources: sources}, Cfg: tcstudy.Config{BufferPages: 10}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range bg.db.RunConcurrent(reqs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
