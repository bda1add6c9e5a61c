package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"tcstudy/internal/bitmatrix"
	"tcstudy/internal/buffer"
	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/pagedisk"
	"tcstudy/internal/planner"
	"tcstudy/internal/relation"
	"tcstudy/internal/router"
	"tcstudy/internal/server"
	"tcstudy/internal/slist"
)

// Layer probes time each layer's public calls in isolation, on inputs made
// from the run's seed. They run at the end of every traced run, whatever
// the workload, with a span around every call, so a layer's cost can be read
// without the layers above it — and compared with what the workload's trace
// says the same layer cost under load.

type prober struct {
	cfg config
	tr  *tracer
	L   map[string]float64
	seq int64
	n   int
	g5  []graph.Arc
}

// timed runs f once inside a span and returns how long it took.
func (p *prober) timed(name string, f func()) time.Duration {
	ot := p.tr.op("probe."+name, p.seq)
	p.seq++
	t0 := time.Now()
	f()
	d := time.Since(t0)
	ot.finish()
	return d
}

// medianOf runs f reps times, each in its own span, and returns the median.
func (p *prober) medianOf(name string, reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(p.timed(name, f))
	}
	return time.Duration(median(ds))
}

// iters scales an iteration count down for the package test.
func (p *prober) iters(full int) int { return max(full/p.cfg.sc.probeDiv, 8) }

func runProbes(cfg config, tr *tracer, L map[string]float64) error {
	p := &prober{cfg: cfg, tr: tr, L: L, n: cfg.sc.nodes}
	tr.on = true
	var err error
	L["graphgen.generate_ms"] = ms(p.medianOf("graphgen.Generate", 5, func() { p.g5, err = servingGraph(cfg) }))
	if err != nil {
		return err
	}
	for _, probe := range []func() error{
		p.pagedisk, p.buffer, p.relation, p.slist, p.core, p.bitmatrix,
		p.index, p.dynamic, p.planner, p.server,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// filledFile makes a file of zeroed pages on a fresh simulated disk.
func filledFile(pages int, sealed bool) (*pagedisk.Disk, pagedisk.FileID, error) {
	d := pagedisk.New()
	f := d.CreateFile("probe")
	var pg pagedisk.Page
	for i := 0; i < pages; i++ {
		id, err := d.Allocate(f)
		if err != nil {
			return nil, 0, err
		}
		if err := d.Write(f, id, &pg); err != nil {
			return nil, 0, err
		}
	}
	if sealed {
		d.Seal(f)
	}
	return d, f, nil
}

func (p *prober) pagedisk() error {
	const pages = 64
	n := p.iters(200_000)
	var err error
	perCall := func(name string, sealed bool, call func(d *pagedisk.Disk, f pagedisk.FileID, id pagedisk.PageID) error) float64 {
		d, f, e := filledFile(pages, sealed)
		if e != nil {
			err = e
			return 0
		}
		took := p.timed(name, func() {
			for i := 0; i < n && err == nil; i++ {
				err = call(d, f, pagedisk.PageID(i%pages))
			}
		})
		return float64(took) / float64(n)
	}
	var pg pagedisk.Page
	p.L["pagedisk.view_ns"] = perCall("pagedisk.View", true, func(d *pagedisk.Disk, f pagedisk.FileID, id pagedisk.PageID) error {
		_, err := d.View(f, id)
		return err
	})
	p.L["pagedisk.read_ns"] = perCall("pagedisk.Read", false, func(d *pagedisk.Disk, f pagedisk.FileID, id pagedisk.PageID) error {
		return d.Read(f, id, &pg)
	})
	p.L["pagedisk.write_ns"] = perCall("pagedisk.Write", false, func(d *pagedisk.Disk, f pagedisk.FileID, id pagedisk.PageID) error {
		return d.Write(f, id, &pg)
	})
	return err
}

func newPool(d pagedisk.Store, frames int) (*buffer.Pool, error) {
	pol, err := buffer.NewPolicy("lru", frames)
	if err != nil {
		return nil, err
	}
	return buffer.New(d, frames, pol), nil
}

// buffer times Pool.Get/Unpin with a working set that fits M=10 frames
// (every Get a hit) and one 8 times M cycled in order (every Get a miss).
func (p *prober) buffer() error {
	const m = 10
	n := p.iters(200_000)
	for _, c := range []struct {
		metric string
		pages  int
	}{{"buffer.get_hit_ns", m - 2}, {"buffer.get_miss_ns", 8 * m}} {
		d, f, err := filledFile(c.pages, false)
		if err != nil {
			return err
		}
		pool, err := newPool(d, m)
		if err != nil {
			return err
		}
		took := p.timed("buffer.Get", func() {
			for i := 0; i < n && err == nil; i++ {
				var h buffer.Handle
				if h, err = pool.Get(f, pagedisk.PageID(i%c.pages)); err == nil {
					pool.Unpin(&h, false)
				}
			}
		})
		if err != nil {
			return err
		}
		p.L[c.metric] = float64(took) / float64(n)
	}
	return nil
}

func (p *prober) relation() error {
	d := pagedisk.New()
	rel := relation.Build(d, "g5", graphgen.Tuples(p.g5))
	pool, err := newPool(d, 10)
	if err != nil {
		return err
	}
	tuples := 0
	took := p.timed("relation.Scan", func() {
		err = rel.Scan(pool, func(relation.Tuple) bool { tuples++; return true })
	})
	if err != nil {
		return err
	}
	p.L["relation.scan_ns_per_tuple"] = ratio(float64(took), float64(tuples))
	rng := rand.New(rand.NewSource(p.cfg.seed))
	n := p.iters(2000)
	took = p.timed("relation.Probe", func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = rel.Probe(pool, int32(1+rng.Intn(p.n)), func(int32) bool { return true })
		}
	})
	p.L["relation.probe_us"] = us(took) / float64(n)
	return err
}

func newListStore(frames, lists int) (*slist.Store, error) {
	pool, err := newPool(pagedisk.New(), frames)
	if err != nil {
		return nil, err
	}
	lp, err := slist.NewListPolicy("smallest")
	if err != nil {
		return nil, err
	}
	return slist.NewStore(pool, "lists", lists, lp), nil
}

// slist times the successor-fetch loop over one long list, and interleaved
// appends to many lists, which keeps the page-split machinery running.
func (p *prober) slist() error {
	const entries, lists, rounds = 2000, 64, 40
	s, err := newListStore(16, 8)
	if err != nil {
		return err
	}
	vals := make([]int32, entries)
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		return err
	}
	reps := p.iters(200)
	var it slist.Iterator
	took := p.timed("slist.Iterate", func() {
		for r := 0; r < reps && err == nil; r++ {
			it.Reset(s, 0)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			it.Close()
			err = it.Err()
		}
	})
	if err != nil {
		return err
	}
	p.L["slist.iterate_ns_per_entry"] = float64(took) / float64(reps*entries)

	reps = p.iters(20)
	var total time.Duration
	for r := 0; r < reps; r++ {
		if s, err = newListStore(64, lists); err != nil {
			return err
		}
		total += p.timed("slist.Append", func() {
			for round := 0; round < rounds && err == nil; round++ {
				for id := int32(0); id < lists && err == nil; id++ {
					err = s.Append(id, int32(round))
				}
			}
		})
		if err != nil {
			return err
		}
	}
	p.L["slist.append_ns_per_entry"] = float64(total) / float64(reps*rounds*lists)
	return nil
}

func (p *prober) core() error {
	db := core.NewDatabase(p.n, p.g5)
	rng := rand.New(rand.NewSource(p.cfg.seed))
	var err error
	took := p.medianOf("core.RunConcurrent", 5, func() {
		reqs := make([]core.Request, 8)
		for i := range reqs {
			reqs[i] = core.Request{
				Alg: core.SRCH, Query: core.Query{Sources: randomSources(rng, p.n, 4)},
				Cfg: core.Config{BufferPages: 10},
			}
		}
		for _, r := range core.RunConcurrent(db, reqs) {
			if r.Err != nil {
				err = r.Err
			}
		}
	})
	p.L["core.run_concurrent_batch8_ms"] = ms(took)
	return err
}

// randomDAG is an n-node matrix with each forward bit set with probability
// density, so ascending row order is topological.
func randomDAG(n int, density float64, rng *rand.Rand) *bitmatrix.Matrix {
	m := bitmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

// bitmatrix times the three kernels at the density where the engine starts
// choosing the matrix (0.02), at a size below and one above the always-fits
// limit: the serial/parallel crossover is read off these.
func (p *prober) bitmatrix() error {
	const density = 0.02
	rng := rand.New(rand.NewSource(p.cfg.seed))
	small, large := max(512/p.cfg.sc.probeDiv, 16), max(2048/p.cfg.sc.probeDiv, 32)
	reverse := func(n int) []int {
		o := make([]int, n)
		for i := range o {
			o[i] = n - 1 - i
		}
		return o
	}
	ms0, ml := randomDAG(small, density, rng), randomDAG(large, density, rng)
	p.L["bitmatrix.dag_n512_ms"] = ms(p.medianOf("bitmatrix.ClosureDAG", 5, func() { ms0.Clone().ClosureDAG(reverse(small)) }))
	var st bitmatrix.Stats
	p.L["bitmatrix.dag_n2048_ms"] = ms(p.medianOf("bitmatrix.ClosureDAG", 5, func() { st = ml.Clone().ClosureDAG(reverse(large)) }))
	p.L["bitmatrix.word_ors_per_closure"] = float64(st.RowUnions) * float64(ml.WordsPerRow())
	p.L["bitmatrix.warren_n2048_ms"] = ms(p.medianOf("bitmatrix.Closure", 3, func() { ml.Clone().Closure(1) }))
	p.L["bitmatrix.fw_par2_n2048_ms"] = ms(p.medianOf("bitmatrix.Closure", 3, func() { ml.Clone().Closure(2) }))
	return nil
}

func (p *prober) index() error {
	g := graph.New(p.n, p.g5)
	var greedy, kt *index.Index
	var err error
	p.L["index.build_greedy_ms"] = ms(p.medianOf("index.Build", 3, func() { greedy, err = index.Build(g) }))
	if err != nil {
		return err
	}
	p.L["index.build_kt_ms"] = ms(p.medianOf("index.BuildKT", 3, func() { kt, err = index.BuildKT(g, index.KTOptions{}) }))
	if err != nil {
		return err
	}
	gs, ks := greedy.ComputeStats(), kt.ComputeStats()
	p.L["index.bytes_per_node_greedy"], p.L["index.bytes_per_node_kt"] = gs.BytesPerNode, ks.BytesPerNode
	p.L["index.chains_greedy"], p.L["index.chains_kt"] = float64(gs.Chains), float64(ks.Chains)

	var file bytes.Buffer
	p.L["index.save_ms"] = ms(p.medianOf("index.Save", 3, func() { file.Reset(); err = greedy.Save(&file) }))
	if err != nil {
		return err
	}
	p.L["index.load_ms"] = ms(p.medianOf("index.Load", 3, func() { _, err = index.Load(bytes.NewReader(file.Bytes())) }))
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(p.cfg.seed))
	n := p.iters(200_000)
	hits := 0
	took := p.timed("index.Reach", func() {
		for i := 0; i < n; i++ {
			if greedy.Reach(int32(1+rng.Intn(p.n)), int32(1+rng.Intn(p.n))) {
				hits++
			}
		}
	})
	p.L["index.reach_ns"] = float64(took) / float64(n)
	n = p.iters(2000)
	took = p.timed("index.Successors", func() {
		for i := 0; i < n; i++ {
			hits += len(greedy.Successors(int32(1 + rng.Intn(p.n))))
		}
	})
	p.L["index.successors_us"] = us(took) / float64(n)

	// In-place maintenance, on a copy so the timings above stay on the
	// built index: closure-preserving deletes (arcs outside the transitive
	// reduction), then forward inserts as mutate_mix makes them.
	patched, err := index.Load(bytes.NewReader(file.Bytes()))
	if err != nil {
		return err
	}
	_, redundant, err := g.Reduction()
	if err != nil {
		return err
	}
	var drop []graph.Arc
	for _, a := range g.Arcs() {
		if redundant(a) && len(drop) < p.iters(400) {
			drop = append(drop, a)
		}
	}
	took = p.timed("index.DeleteRedundantArc", func() {
		for _, a := range drop {
			if e := patched.DeleteRedundantArc(a.From, a.To); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	p.L["index.delete_redundant_us"] = ratio(us(took), float64(len(drop)))
	n = p.iters(400)
	took = p.timed("index.InsertArcMerge", func() {
		for i := 0; i < n; i++ {
			u := int32(1 + rng.Intn(p.n-1))
			v := u + 1 + int32(rng.Intn(min(insertSpan, p.n-int(u))))
			if _, e := patched.InsertArcMerge(u, v); e != nil {
				err = e
			}
		}
	})
	p.L["index.insert_arc_us"] = us(took) / float64(n)
	return err
}

// dynamic replays the mutate_mix write stream into a service with the
// background worker off, so each cost can be timed on its own: a batch
// applied to a clean index, reads on a clean and on a dirty service, and one
// generational rebuild.
func (p *prober) dynamic() error {
	g := graph.New(p.n, p.g5)
	idx, err := index.Build(g)
	if err != nil {
		return err
	}
	arcs := g.Arcs()
	svc, err := dynamic.New(p.n, arcs, idx, dynamic.Options{Manual: true})
	if err != nil {
		return err
	}
	defer svc.Close()
	gen := newMutator(p.n, arcs, clientRand(p.cfg.seed, 1, 6))
	rng := rand.New(rand.NewSource(p.cfg.seed))
	reads := func(name string) time.Duration {
		return p.timed(name, func() {
			for i := 0; i < 50 && err == nil; i++ {
				_, _, _, err = svc.Reach(int32(1+rng.Intn(p.n)), int32(1+rng.Intn(p.n)), 0)
			}
		}) / 50
	}
	var apply, clean, dirty, rebuild []float64
	for i, n := 0, p.iters(60); i < n && err == nil; i++ {
		batch := gen.batch()
		var res dynamic.Result
		apply = append(apply, float64(p.timed("dynamic.Apply", func() { res, err = svc.Apply(batch) })))
		if err != nil {
			break
		}
		if !res.Dirty {
			clean = append(clean, float64(reads("dynamic.Reach.clean")))
			continue
		}
		dirty = append(dirty, float64(reads("dynamic.Reach.dirty")))
		rebuild = append(rebuild, float64(p.timed("dynamic.RebuildNow", func() { err = svc.RebuildNow() })))
	}
	p.L["dynamic.apply_us"] = us(time.Duration(median(apply)))
	p.L["dynamic.reach_clean_ns"] = median(clean)
	p.L["dynamic.reach_dirty_us"] = us(time.Duration(median(dirty)))
	p.L["dynamic.rebuild_ms"] = ms(time.Duration(median(rebuild)))
	return err
}

func (p *prober) planner() error {
	g := graph.New(p.n, p.g5)
	var prof planner.Profile
	var err error
	p.L["planner.profile_ms"] = ms(p.medianOf("planner.BuildProfile", 3, func() { prof, err = planner.BuildProfile(g, 64, p.cfg.seed) }))
	if err != nil {
		return err
	}
	ad := planner.NewAdaptive(planner.Config{})
	n := p.iters(20_000)
	took := p.timed("planner.Observe", func() {
		for i := 0; i < n; i++ {
			ad.Observe(prof, 1+i%4, 10, core.SRCH, time.Millisecond, 300)
		}
	})
	p.L["planner.observe_ns"] = float64(took) / float64(n)
	n = p.iters(2000)
	took = p.timed("planner.Rank", func() {
		for i := 0; i < n; i++ {
			ad.Rank(prof, 1+i%4, 10)
		}
	})
	p.L["planner.rank_us"] = us(took) / float64(n)
	return nil
}

// server calls the handler tcserve mounts with no TCP in between, so what
// the workloads add on top of these is transport.
func (p *prober) server() error {
	db := core.NewDatabase(p.n, p.g5)
	idx, err := index.Build(graph.New(p.n, p.g5))
	if err != nil {
		return err
	}
	srv := server.New(db, server.Options{Index: idx, DefaultConfig: core.Config{BufferPages: 10}})
	defer srv.Close()
	rng := rand.New(rand.NewSource(p.cfg.seed))
	var last []byte
	call := func(o op) {
		method, path, body := o.encode()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("server probe: %s %s: status %d", method, path, rec.Code)
		}
		last = rec.Body.Bytes()
	}
	hot := op{kind: opQuery, alg: string(core.SRCH), sources: []int32{1, 2, 3}}
	call(hot)
	n := p.iters(5000)
	took := p.timed("server.ServeHTTP.hit", func() {
		for i := 0; i < n; i++ {
			call(hot)
		}
	})
	p.L["server.handler_hit_us"] = us(took) / float64(n)
	took = p.timed("server.ServeHTTP.reach", func() {
		for i := 0; i < n; i++ {
			call(randomReach(rng, p.n))
		}
	})
	p.L["server.handler_reach_us"] = us(took) / float64(n)
	n = p.iters(200)
	var replies [][]byte // the first three, for the merge probe below
	took = p.timed("server.ServeHTTP.miss", func() {
		for i := 0; i < n && err == nil; i++ {
			call(op{kind: opQuery, alg: string(core.SRCH), sources: randomSources(rng, p.n, 1+rng.Intn(4))})
			if len(replies) < 3 {
				replies = append(replies, append([]byte(nil), last...))
			}
		}
	})
	p.L["server.handler_miss_ms"] = ms(took) / float64(n)
	if err != nil {
		return err
	}
	var records []router.Record
	for _, b := range replies {
		var rep reply
		if err := json.Unmarshal(b, &rep); err != nil || rep.Metrics == nil {
			return fmt.Errorf("server probe: reply carries no metric record: %v", err)
		}
		records = append(records, *rep.Metrics)
	}
	n = p.iters(20_000)
	took = p.timed("router.MergeRecords", func() {
		for i := 0; i < n; i++ {
			router.MergeRecords(records)
		}
	})
	p.L["router.merge_us"] = us(took) / float64(n)
	return nil
}
