package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/planner"
)

// paper_grid is the paper's own experiment, in-process on one goroutine with
// no HTTP: core.Run over a deep, a wide and a dense graph, eight strategies
// and the query shapes and buffer sizes that flip the winner in the paper
// (Fig. 8, Fig. 13, Table 4). An operation is one cell; the light class is
// the selection (PTC) cells, the heavy class the full-closure (CTC) cells.

// gridSpecs are the study graphs G4 (deep), G6 (wide) and G11 (dense).
var gridSpecs = []struct {
	name string
	f, l int
}{{"g4", 5, 20}, {"g6", 5, 2000}, {"g11", 50, 200}}

// gridShapes are the query shapes of one pass: sources 0 is the full closure.
var gridShapes = []struct{ sources, m int }{{0, 10}, {10, 10}, {200, 10}, {10, 50}}

// hybILIMIT is the share of the pool HYB reserves for its diagonal block.
const hybILIMIT = 0.25

// nominalPassSeconds is what one pass of the grid costs on the 2-core box
// the benchmark was sized on; --seconds buys that many whole passes.
const nominalPassSeconds = 6

type gridCell struct {
	graph, shape int
	alg          core.Algorithm
}

func gridCells() []gridCell {
	var cells []gridCell
	for g := range gridSpecs {
		for s, sh := range gridShapes {
			for _, a := range gridAlgs {
				if sh.sources == 0 && a == core.SRCH {
					continue // SRCH answers selections only
				}
				cells = append(cells, gridCell{g, s, a})
			}
		}
	}
	return cells
}

type gridGraph struct {
	arcs []graph.Arc
	db   *core.Database
}

// gridSetup is the program's set-up for this workload: generate the three
// graphs from the seed and store each as a database.
func gridSetup(cfg config) ([]gridGraph, error) {
	graphs := make([]gridGraph, len(gridSpecs))
	for i, sp := range gridSpecs {
		arcs, err := graphgen.Generate(graphgen.Params{
			Nodes: cfg.sc.nodes, OutDegree: sp.f, Locality: sp.l, Seed: cfg.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", sp.name, err)
		}
		graphs[i] = gridGraph{arcs: arcs, db: core.NewDatabase(cfg.sc.nodes, arcs)}
	}
	return graphs, nil
}

// strataSources draws k distinct sources, one from each of k equal strata of
// 1..n. Node ids are a topological order here, so how much of the graph a
// source reaches falls with its id: k sources drawn anywhere make selections
// whose cost moves by a third from seed to seed, one per stratum holds it
// within a few percent while which nodes are asked still depends on the seed.
func strataSources(n, k int, rng *rand.Rand) []int32 {
	k = min(k, n)
	s := make([]int32, k)
	for i := range s {
		lo, hi := i*n/k, (i+1)*n/k
		s[i] = int32(1 + lo + rng.Intn(hi-lo))
	}
	return s
}

// cellRun is one executed cell of one pass.
type cellRun struct {
	took time.Duration
	m    core.Metrics
}

func runPaperGrid(cfg config) (*outcome, error) {
	out := newOutcome("paper_grid")
	var graphs []gridGraph
	setup, err := medianSetup(cfg, func() (err error) {
		graphs, err = gridSetup(cfg)
		return err
	}, func() { graphs = nil })
	if err != nil {
		return nil, err
	}

	n := cfg.sc.nodes
	checks := make([]*checker, len(graphs))
	for i, g := range graphs {
		checks[i] = newOracle(n, g.arcs).checker()
	}
	sources := make([][]int32, len(gridShapes))
	for i, sh := range gridShapes {
		if sh.sources > 0 {
			sources[i] = strataSources(n, sh.sources, clientRand(cfg.seed, i, 9))
		}
	}
	cells := gridCells()

	// A pass is the unit of work, and the window is a whole number of them
	// fixed by --seconds alone, so every run of a seed does the same work
	// and a faster build simply ends sooner. Every (graph, shape) group of
	// cells starts from the same state — its graph stored afresh, the heap
	// collected, both outside the timings — so the passes are repetitions
	// of one measurement and a cell's time is its median over them, and the
	// temporary pages the engine leaves reachable on a database (see
	// README) stay a few hundred MB instead of growing by 560 MB a pass.
	// The traced run is two passes, recording off then on.
	tr := newTracer(time.Now(), 0)
	runs := make([][]cellRun, len(cells)) // [cell][pass]
	var passTook []time.Duration
	var heap Metric // the most a group left on the heap, first pass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	passes := max(1, int(cfg.seconds/nominalPassSeconds))
	if cfg.trace {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		tr.on = cfg.trace && pass == 1
		var took time.Duration
		for ci, c := range cells {
			if ci == 0 || c.graph != cells[ci-1].graph || c.shape != cells[ci-1].shape {
				g := &graphs[c.graph]
				g.db = nil
				runtime.GC()
				g.db = core.NewDatabase(n, g.arcs)
			}
			sh := gridShapes[c.shape]
			ecfg := core.Config{BufferPages: sh.m}
			if c.alg == core.HYB {
				ecfg.ILIMIT = hybILIMIT
			}
			q := core.Query{Sources: sources[c.shape]}
			ot := tr.op("cell."+gridSpecs[c.graph].name+"."+string(c.alg), int64(pass*len(cells)+ci))
			t0 := time.Now()
			res, err := core.Run(graphs[c.graph].db, c.alg, q, ecfg)
			d := time.Since(t0)
			if err == nil {
				ot.attr(ot.root, "restructure_ms", ms(res.Metrics.RestructureTime))
				ot.attr(ot.root, "compute_ms", ms(res.Metrics.ComputeTime))
				ot.attr(ot.root, "page_io", float64(res.Metrics.TotalIO()))
			}
			ot.finish()
			took += d
			out.Attempted++
			if err != nil {
				out.fail("cell %v: %v", c, err)
				continue
			}
			if !gridAnswerRight(checks[c.graph], q, res, n) {
				out.fail("cell %v: successors differ from the BFS oracle", c)
				continue
			}
			runs[ci] = append(runs[ci], cellRun{took: d, m: res.Metrics})
			last := ci == len(cells)-1 || c.graph != cells[ci+1].graph || c.shape != cells[ci+1].shape
			if last && pass == 0 && !cfg.trace {
				res = nil // the answer is checked; what stays is what the database holds
				if h := liveHeap(); h.Value > heap.Value {
					heap = h
				}
			}
		}
		passTook = append(passTook, took)
	}
	runtime.ReadMemStats(&after)
	if out.Failed > 0 {
		return out, nil
	}

	// Only engine time is summed, so verification and bookkeeping between
	// cells stay out of every timing. A cell's time is its median over the
	// passes: a neighbour waking up for a second spoils one repetition of a
	// few cells, not a pass.
	cellMS := make([]float64, len(cells))
	for ci := range cells {
		took := make([]float64, passes)
		for p, r := range runs[ci] {
			took[p] = ms(r.took)
		}
		cellMS[ci] = median(took)
	}
	// passMS is what the cells kept cost in one pass; perPass the same for
	// each pass on its own, kept in the result file beside the value.
	passMS := func(keep func(gridCell) bool) (total float64) {
		for ci, c := range cells {
			if keep(c) {
				total += cellMS[ci]
			}
		}
		return total
	}
	perPass := func(keep func(gridCell) bool) []float64 {
		per := make([]float64, passes)
		for ci, c := range cells {
			if keep(c) {
				for p, r := range runs[ci] {
					per[p] += ms(r.took)
				}
			}
		}
		return per
	}
	every := func(gridCell) bool { return true }
	isCTC := func(c gridCell) bool { return gridShapes[c.shape].sources == 0 }
	isPTC := func(c gridCell) bool { return !isCTC(c) }
	// On this workload an operation's latency is its class's share of a
	// pass divided by the cells of the class: 72 selection cells from 1 ms
	// to 400 ms have no meaningful median, and which cell sits at it
	// changes with the seed.
	perCell := func(class func(gridCell) bool) Metric {
		kept := 0
		for _, c := range cells {
			if class(c) {
				kept++
			}
		}
		per := perPass(class)
		for i := range per {
			per[i] /= float64(kept)
		}
		return Metric{Value: passMS(class) / float64(kept), Unit: "ms", Samples: kept * passes, Segments: per}
	}
	light, heavy := perCell(isPTC), perCell(isCTC)
	L := out.layerValues
	L["harness.light_tail_ms"] = gridTail(cells, cellMS, isPTC)
	if cfg.trace {
		L["harness.light_ms"], L["harness.heavy_ms"] = light.Value, heavy.Value
		L["harness.trace_overhead_pct"] = 100 * (1 - passTook[0].Seconds()/passTook[1].Seconds())
		out.tracers = []*tracer{tr}
	} else {
		rate := Metric{Value: 1000 * float64(len(cells)) / passMS(every), Unit: "1/s", Samples: passes * len(cells)}
		for _, t := range perPass(every) {
			rate.Segments = append(rate.Segments, 1000*float64(len(cells))/t)
		}
		out.EndToEnd["setup_s"] = setup
		out.EndToEnd["ops_per_s"] = rate
		out.EndToEnd["light_ms"] = light
		out.EndToEnd["heavy_ms"] = heavy
		out.EndToEnd["live_heap_mb"] = heap
	}

	// Per-layer numbers the engine itself returned, from the first pass
	// (they repeat exactly on every pass).
	var total, m10, m50, ptc engineSums
	ioOf := make(map[gridCell]int64, len(cells))
	for ci, c := range cells {
		m := &runs[ci][0].m
		rec := recordOf(m)
		total.add(rec)
		if gridShapes[c.shape].m == 50 {
			m50.add(rec)
		} else {
			m10.add(rec)
		}
		if isPTC(c) {
			ptc.add(rec)
		}
		ioOf[c] = m.TotalIO()
	}
	total.layerCounts(L, int64(len(cells)))
	L["buffer.hit_ratio"] = m10.hitRatio()
	L["buffer.hit_ratio_m50"] = m50.hitRatio()
	L["core.selection_efficiency"] = ptc.selectionEfficiency()
	L["core.restructure_ms"] = total.r.RestructureMS // per pass here, per op on the serving workloads
	L["core.compute_ms"] = total.r.ComputeMS
	L["core.ctc_pass_ms"] = passMS(isCTC)
	L["core.ptc_pass_ms"] = passMS(isPTC)
	for _, a := range gridAlgs {
		a := a
		L["core."+string(a)+".ms"] = passMS(func(c gridCell) bool { return c.alg == a })
		var io int64
		for c, v := range ioOf {
			if c.alg == a {
				io += v
			}
		}
		L["core."+string(a)+".page_io"] = float64(io)
	}
	for g, sp := range gridSpecs {
		g := g
		L["core."+sp.name+".ms"] = passMS(func(c gridCell) bool { return c.graph == g })
	}
	// Paper-shape ratios at s=10, M=10 (shape 1): JKB2 wins the deep G4
	// and loses the dense G11; blocking (HYB) never beats BTC on CTC.
	L["core.io_ratio_jkb2_btc.g4"] = ratio(float64(ioOf[gridCell{0, 1, core.JKB2}]), float64(ioOf[gridCell{0, 1, core.BTC}]))
	L["core.io_ratio_jkb2_btc.g11"] = ratio(float64(ioOf[gridCell{2, 1, core.JKB2}]), float64(ioOf[gridCell{2, 1, core.BTC}]))
	var hyb, btc int64
	for g := range gridSpecs {
		hyb += ioOf[gridCell{g, 0, core.HYB}]
		btc += ioOf[gridCell{g, 0, core.BTC}]
	}
	L["core.io_ratio_hyb_btc"] = ratio(float64(hyb), float64(btc))
	if L["planner.top1_hit_share"], err = plannerTop1(cfg, graphs, ioOf); err != nil {
		return nil, err
	}
	goStats(L, &before, &after, int64(passes*len(cells)))
	return out, nil
}

// gridTail is the tail of a class on this workload: the 90th percentile,
// nearest rank, of its cells' times — 72 selection cells have no 99th.
func gridTail(cells []gridCell, cellMS []float64, class func(gridCell) bool) float64 {
	var ts []float64
	for ci, c := range cells {
		if class(c) {
			ts = append(ts, cellMS[ci])
		}
	}
	slices.Sort(ts)
	return ts[(9*len(ts)+9)/10-1]
}

// gridAnswerRight checks every successor set a cell returned against the
// oracle: all nodes for a full closure, the sources for a selection.
func gridAnswerRight(ck *checker, q core.Query, res *core.Result, n int) bool {
	if q.IsFull() {
		for v := int32(1); int(v) <= n; v++ {
			if !ck.sameSet(v, res.Successors[v]) {
				return false
			}
		}
		return true
	}
	for _, s := range q.Sources {
		if !ck.sameSet(s, res.Successors[s]) {
			return false
		}
	}
	return true
}

// plannerTop1 is the share of (graph, shape) groups where the static planner
// names the algorithm that measured the lowest page I/O in the grid.
func plannerTop1(cfg config, graphs []gridGraph, ioOf map[gridCell]int64) (float64, error) {
	hits := 0
	for g, gg := range graphs {
		prof, err := planner.BuildProfile(graph.New(cfg.sc.nodes, gg.arcs), 64, cfg.seed)
		if err != nil {
			return 0, fmt.Errorf("planner profile of %s: %w", gridSpecs[g].name, err)
		}
		for s, sh := range gridShapes {
			best, bestIO := core.Algorithm(""), int64(-1)
			for _, a := range gridAlgs {
				io, ok := ioOf[gridCell{g, s, a}]
				if ok && (bestIO < 0 || io < bestIO) {
					best, bestIO = a, io
				}
			}
			if planner.Choose(prof, sh.sources, sh.m).Alg == best {
				hits++
			}
		}
	}
	return ratio(float64(hits), float64(len(graphs)*len(gridShapes))), nil
}
