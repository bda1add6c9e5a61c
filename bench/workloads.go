package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"tcstudy/internal/core"
)

// workload is one named traffic mix of the ledger. The names, and which
// operation class is light and which heavy, are fixed: later changes are
// judged against them.
type workload struct {
	name  string
	why   string
	light string // what light_ms times on this workload
	heavy string // what heavy_ms times
	run   func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{
		name:  "paper_grid",
		why:   "the paper's experiment in-process: core, slist, buffer and pagedisk do all the work, server and router none",
		light: "one selection (PTC) cell", heavy: "one full-closure (CTC) cell",
		run: runPaperGrid,
	},
	{
		name:  "serve_hot",
		why:   "working set fits the result cache and the index: HTTP codec, cache lookup and index probe do the work, the engine none",
		light: "GET /v1/reach (index hit)", heavy: "POST /v1/query (cache hit)",
		run: func(cfg config) (*outcome, error) { return runServing(cfg, serveHot) },
	},
	{
		name:  "serve_cold",
		why:   "query shapes never repeat, so the cache is bypassed: core, buffer, pagedisk and the admission batcher do the work",
		light: "POST /v1/query srch, 1-4 sources", heavy: "POST /v1/query bj, 32 sources",
		run: func(cfg config) (*outcome, error) { return runServing(cfg, serveCold) },
	},
	{
		name:  "routed",
		why:   "same reach probe and engine path behind tcrouter and 3 replicas: partition, fan-out, gather and merge do the work",
		light: "GET /v1/reach via the router", heavy: "POST /v1/query srch, 8 sources, scattered",
		run: func(cfg config) (*outcome, error) { return runServing(cfg, routed) },
	},
	{
		name:  "mutate_mix",
		why:   "paced arc writes beside closed-loop reads: dynamic patching, overlay reads and index rebuilds do the work",
		light: "GET /v1/reach on the mutable service", heavy: "POST /v1/arc, timed from its due time",
		run: runMutateMix,
	},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serving describes a closed-loop HTTP workload over the paper's G5.
type serving struct {
	name   string
	spec   fleetSpec
	stream func(cfg config, client int) stream
	// prime lists requests set-up sends once before warm-up, to fill caches.
	prime func(cfg config) []op
	// soak is how many requests each client sends between set-up and the
	// timed window: enough to fill the result cache, and always the same
	// number, so the heap read after it does not move with throughput.
	soak int
}

// hotAlgs are the algorithms of the serve_hot shape pool.
var hotAlgs = []string{string(core.SRCH), string(core.BJ), string(core.BTC)}

// hotPool is the fixed pool of query shapes of serve_hot: small enough that
// every shape stays in the result cache. Algorithms and source counts are
// dealt round-robin, and shape i takes its sources from strata 4i, 4i+1, ...
// of the node ids (see strataSources), so that which sources are asked
// depends on the seed but how much work priming the cache is, and how much
// it leaves on the heap, barely does.
func hotPool(cfg config) []op {
	pool := make([]op, cfg.sc.hotShapes)
	strata := strataSources(cfg.sc.nodes, 4*len(pool), clientRand(cfg.seed, 0, 1))
	for i := range pool {
		sources := make([]int32, 1+i%4)
		for j := range sources {
			sources[j] = strata[4*i+j]
		}
		pool[i] = op{kind: opQuery, class: 1, alg: hotAlgs[i%len(hotAlgs)], sources: sources}
	}
	return pool
}

var serveHot = serving{
	name: "serve_hot",
	spec: fleetSpec{index: true, replicas: 1},
	stream: func(cfg config, client int) stream {
		rng, pool := clientRand(cfg.seed, client, 2), hotPool(cfg)
		return func() op {
			if rng.Intn(2) == 0 {
				return pool[rng.Intn(len(pool))]
			}
			return randomReach(rng, cfg.sc.nodes)
		}
	},
	prime: hotPool,
	soak:  5000,
}

// coldHeavyEvery makes every tenth request of a serve_cold client a heavy
// one. The position is fixed, not drawn: with 10% drawn at random the number
// of heavy requests in a window, which is most of its cost, would vary by
// several percent from seed to seed.
const coldHeavyEvery = 10

var serveCold = serving{
	name: "serve_cold",
	spec: fleetSpec{replicas: 1},
	soak: 150, // 300 distinct queries against a 256-entry cache
	stream: func(cfg config, client int) stream {
		rng := clientRand(cfg.seed, client, 3)
		i := client * coldHeavyEvery / clients // the clients' heavy requests interleave
		return func() op {
			i++
			if i%coldHeavyEvery == 0 {
				return op{kind: opQuery, class: 1, alg: string(core.BJ), sources: randomSources(rng, cfg.sc.nodes, 32)}
			}
			return op{kind: opQuery, class: 0, alg: string(core.SRCH), sources: randomSources(rng, cfg.sc.nodes, 1+rng.Intn(4))}
		}
	},
}

var routed = serving{
	name: "routed",
	spec: fleetSpec{index: true, replicas: 3, routed: true},
	soak: 2000,
	stream: func(cfg config, client int) stream {
		rng := clientRand(cfg.seed, client, 4)
		return func() op {
			if rng.Intn(2) == 0 {
				return op{kind: opQuery, class: 1, alg: string(core.SRCH), sources: randomSources(rng, cfg.sc.nodes, 8)}
			}
			return randomReach(rng, cfg.sc.nodes)
		}
	},
}

// setUpServing is the program's set-up for a serving workload, everything a
// user waits for before the first timed request: generate the graph, store
// it, build the index, bring the listeners up, fill the caches (prime) and
// send the warm-up requests.
func setUpServing(cfg config, spec fleetSpec, or *oracle, prime []op, warm func(client int) stream) (*fleet, error) {
	f, err := startFleet(cfg, spec)
	if err != nil {
		return nil, err
	}
	c := newClient(0, f.url, or.checker(), time.Now())
	defer c.hc.CloseIdleConnections()
	for i := range prime {
		c.exec(&prime[i], time.Time{})
	}
	for cl := 0; cl < clients; cl++ {
		next := warm(cl)
		for i := 0; i < cfg.sc.warmOps; i++ {
			o := next()
			c.exec(&o, time.Time{})
		}
	}
	if c.failed > 0 {
		f.close()
		return nil, fmt.Errorf("set-up: %d of %d warm-up requests failed: %v", c.failed, c.attempted, c.failures)
	}
	return f, nil
}

func runServing(cfg config, w serving) (*outcome, error) {
	out := newOutcome(w.name)
	or, err := servingOracle(cfg)
	if err != nil {
		return nil, err
	}
	var prime []op
	if w.prime != nil {
		prime = w.prime(cfg)
	}
	// Warm-up draws from its own streams so the timed streams start at
	// their first request on every run.
	warm := func(client int) stream { return w.stream(cfg, client+clients) }
	var f *fleet
	setup, err := medianSetup(cfg, func() (err error) {
		f, err = setUpServing(cfg, w.spec, or, prime, warm)
		return err
	}, func() { f.close() })
	if err != nil {
		return nil, err
	}
	defer f.close()

	// Streams: clients 0..1 are the timed ones, 2..3 warmed set-up, 4..5 soak.
	loops, soak := make([]func(*client, time.Time), clients), make([]func(*client, time.Time), clients)
	for i := range loops {
		loops[i] = closedLoop(w.stream(cfg, i))
		soak[i] = counted(w.stream(cfg, i+2*clients), max(w.soak/cfg.sc.soakDiv, 1))
	}
	drive(f.url, or.checker, soak, nil, 0, 0, 0, false).into(out)
	heap := liveHeap()

	p, nseg := timed(cfg, out, f.url, or.checker, loops, nil, p50)
	L := out.layerValues
	if f.idx != nil {
		L["index.bytes_per_node_serving"] = f.idx.ComputeStats().BytesPerNode
	}
	if f.rt != nil {
		var sub int64
		for _, s := range f.servers {
			snap := s.Metrics().Snapshot()
			sub += snap.Queries + snap.Reaches
		}
		// Replica counters also hold set-up's warm-up requests; attempted
		// holds the soak and the window.
		L["router.subrequests_per_op"] = ratio(float64(sub), float64(out.Attempted+int64(clients*cfg.sc.warmOps)))
	}
	if cfg.trace && w.spec.routed {
		if err := routerReferences(cfg, w, f, or, p, nseg, out); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		endToEndServing(out, setup, heap, p, nseg, p50)
	}
	return out, nil
}

// timed drives the loops through the warm-up and the timed window — 5
// segments, or 10 alternating untraced and traced ones on a traced run — and
// fills in the per-layer values every serving workload shares. typical is the
// statistic light_ms and heavy_ms report on this workload.
func timed(cfg config, out *outcome, url string, ck func() *checker, loops []func(*client, time.Time),
	ackSeq *atomic.Int64, typical func(sorted []int64) float64) (p *phase, nseg int) {
	nseg = segments
	if cfg.trace {
		nseg = 2 * segments
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p = drive(url, ck, loops, ackSeq, cfg.warm(), cfg.length(), nseg, cfg.trace)
	runtime.ReadMemStats(&after)
	p.into(out)
	servingLayers(out.layerValues, p, nseg, cfg.trace, typical)
	goStats(out.layerValues, &before, &after, int64(len(p.samples)))
	if cfg.trace {
		out.tracers = p.tracers
	}
	return p, nseg
}

// endToEndServing reduces an untraced phase to the end-to-end metrics.
func endToEndServing(out *outcome, setup, heap Metric, p *phase, nseg int, typical func(sorted []int64) float64) {
	all := segs(nseg, 1)
	out.EndToEnd["setup_s"] = setup
	out.EndToEnd["ops_per_s"] = segmentRate(p.samples, all, p.segLen)
	out.EndToEnd["light_ms"] = segmentStat(p.samples, 0, all, typical)
	out.EndToEnd["heavy_ms"] = segmentStat(p.samples, 1, all, typical)
	out.EndToEnd["live_heap_mb"] = heap
}

// servingLayers derives the per-layer numbers of a serving phase from what
// the replies carried and, on a traced run, from the spans.
func servingLayers(L map[string]float64, p *phase, nseg int, traced bool, typical func(sorted []int64) float64) {
	n := &p.cnt
	ops := n.queries + n.reaches + n.writes
	n.eng.layerCounts(L, ops)
	L["harness.page_io_per_op"] = ratio(float64(n.eng.pageIO()+n.reachPageIO), float64(ops))
	L["core.restructure_ms"] = ratio(n.eng.r.RestructureMS, float64(ops))
	L["core.compute_ms"] = ratio(n.eng.r.ComputeMS, float64(ops))
	L["server.transport_us"] = 1000 * ratio(n.transportMS, float64(ops))
	L["server.nonengine_ms"] = ratio(n.nonengineMS, float64(n.misses))
	L["server.cache_hit_ratio"] = ratio(float64(n.cached), float64(n.queries))
	L["server.index_hit_ratio"] = ratio(float64(n.indexHits), float64(n.reaches))
	L["server.rejected_429"] = float64(n.rejects)
	L["server.request_bytes_per_op"] = ratio(float64(n.reqBytes), float64(ops))
	L["server.response_bytes_per_op"] = ratio(float64(n.respBytes), float64(ops))
	L["router.shards_per_query"] = ratio(float64(n.shards), float64(n.queries))
	L["router.retries"], L["router.hedges"] = float64(n.retries), float64(n.hedges)
	L["harness.attribution_gap_pct"] = 100 * ratio(n.gapMS, n.roundtripMS)
	all := segs(nseg, 1)
	L["harness.light_tail_ms"] = segmentStat(p.samples, 0, all, p99).Value
	if !traced {
		return
	}
	// Overhead from the totals of the two halves, not from segment
	// medians: the halves interleave, so drift cancels, and totals are
	// steadier than medians where a segment holds few operations.
	var nOff, nOn float64
	for _, s := range p.samples {
		if s.seg%2 == 1 {
			nOn++
		} else {
			nOff++
		}
	}
	L["harness.trace_overhead_pct"] = 100 * (1 - ratio(nOn, nOff))
	L["harness.light_ms"] = segmentStat(p.samples, 0, all, typical).Value
	L["harness.heavy_ms"] = segmentStat(p.samples, 1, all, typical).Value
	st := map[string]*selfTime{}
	for _, t := range p.tracers {
		for name, v := range t.totals {
			if st[name] == nil {
				st[name] = &selfTime{}
			}
			st[name].count += v.count
			st[name].self += v.self
		}
	}
	perOp := func(name string) float64 {
		if s := st[name]; s != nil {
			return us(s.self) / float64(s.count)
		}
		return 0
	}
	L["harness.encode_us"] = perOp("client.encode")
	L["harness.decode_us"] = perOp("client.decode")
	L["harness.verify_us"] = perOp("oracle.verify")
}

// routerReferences measures what the routed numbers are compared with, in
// the traced run only: the same streams sent straight to one replica, and
// the same streams through a router fronting a single replica.
func routerReferences(cfg config, w serving, f *fleet, or *oracle, main *phase, nseg int, out *outcome) error {
	loops := func() []func(*client, time.Time) {
		l := make([]func(*client, time.Time), clients)
		for i := range l {
			l[i] = closedLoop(w.stream(cfg, i))
		}
		return l
	}
	ref := cfg.length() / 4
	direct := drive(f.urls[0], or.checker, loops(), nil, cfg.warm(), ref, 1, false)
	direct.into(out)

	spec := w.spec
	spec.replicas = 1
	f1, err := startFleet(cfg, spec)
	if err != nil {
		return err
	}
	defer f1.close()
	r1 := drive(f1.url, or.checker, loops(), nil, cfg.warm(), ref, 1, false)
	r1.into(out)

	L := out.layerValues
	off := segs(nseg, 2)
	one := []int{0}
	L["router.overhead_query_ms"] = segmentStat(main.samples, 1, off, p50).Value - segmentStat(direct.samples, 1, one, p50).Value
	L["router.overhead_reach_us"] = 1000 * (segmentStat(main.samples, 0, off, p50).Value - segmentStat(direct.samples, 0, one, p50).Value)
	r1Rate := segmentRate(r1.samples, one, r1.segLen).Value
	L["router.r1_ops_per_s"] = r1Rate
	L["router.scaling_r3_over_r1"] = ratio(segmentRate(main.samples, off, main.segLen).Value, r1Rate)
	return nil
}
