package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/router"
	"tcstudy/internal/server"
)

// fleetSpec says what a serving workload stands up: the handlers
// cmd/tcserve and cmd/tcrouter mount, with those commands' default flags,
// in-process but behind real loopback TCP listeners.
type fleetSpec struct {
	index    bool // replicas answer /v1/reach from a greedy index
	mutable  bool // a dynamic.Service accepts POST /v1/arc
	replicas int
	routed   bool // a tcrouter fronts the replicas
}

type fleet struct {
	n       int
	arcs    []graph.Arc
	servers []*server.Server
	dyn     *dynamic.Service
	idx     *index.Index // replica 0's serving index, nil without one
	rt      *router.Router
	https   []*http.Server
	urls    []string // replica base URLs
	url     string   // where the clients send
}

// servingGraph generates the graph every serving workload loads: the
// paper's G5 from the run's seed.
func servingGraph(cfg config) ([]graph.Arc, error) {
	return graphgen.Generate(graphgen.Params{
		Nodes: cfg.sc.nodes, OutDegree: servingF, Locality: servingL, Seed: cfg.seed,
	})
}

// servingOracle is the harness's own closure of that graph. It is built
// once per run, outside the timed set-ups: it is the checker, not the program.
func servingOracle(cfg config) (*oracle, error) {
	arcs, err := servingGraph(cfg)
	if err != nil {
		return nil, err
	}
	return newOracle(cfg.sc.nodes, arcs), nil
}

func startFleet(cfg config, spec fleetSpec) (f *fleet, err error) {
	n := cfg.sc.nodes
	gen, err := servingGraph(cfg)
	if err != nil {
		return nil, err
	}
	f = &fleet{n: n}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	for r := 0; r < spec.replicas; r++ {
		db := core.NewDatabase(n, gen)
		if f.arcs, err = db.Arcs(); err != nil {
			return nil, err
		}
		opts := server.Options{ // cmd/tcserve's flag defaults
			Workers: 8, QueueDepth: 64, CacheEntries: 256, DefaultTimeout: 30 * time.Second,
			DefaultConfig: core.Config{BufferPages: 10, PagePolicy: "lru", ListPolicy: "smallest"},
			TraceBuffer:   64,
		}
		var idx *index.Index
		if spec.index || spec.mutable {
			if idx, err = index.Build(graph.New(n, f.arcs)); err != nil {
				return nil, err
			}
		}
		if spec.mutable {
			fp, err := db.Fingerprint()
			if err != nil {
				return nil, err
			}
			if f.dyn, err = dynamic.New(n, f.arcs, idx, dynamic.Options{BaseFingerprint: fp}); err != nil {
				return nil, err
			}
			opts.Dynamic = f.dyn
		} else {
			opts.Index = idx
		}
		if r == 0 {
			f.idx = idx
		}
		srv := server.New(db, opts)
		f.servers = append(f.servers, srv)
		url, err := f.listen(srv)
		if err != nil {
			return nil, err
		}
		f.urls = append(f.urls, url)
	}
	f.url = f.urls[0]
	if spec.routed {
		if f.rt, err = router.New(router.Options{Replicas: f.urls}); err != nil {
			return nil, err
		}
		f.rt.CheckNow(context.Background())
		f.rt.Start()
		if f.url, err = f.listen(f.rt); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// basePort is where a fleet's listeners go, in the order they come up. The
// router places sources on its ring by hashing replica URLs, so replicas on
// whatever ports the kernel hands out are a different partition of the
// sources, and a different balance of the load, on every run. It lies below
// the range outgoing connections take their ports from.
const basePort = 27100

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(basePort+len(f.https)))
	if err != nil { // taken (a second fleet is up): any free port, at the price of a ring of its own
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	go hs.Serve(ln) // returns when close shuts the server down
	return "http://" + ln.Addr().String(), nil
}

// close stops the fleet front to back and waits for every listener,
// dispatcher and rebuild worker to end.
func (f *fleet) close() {
	if f == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		f.https[i].Shutdown(ctx)
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	if f.dyn != nil {
		f.dyn.Close()
	}
}

// op is one request of a client's stream before it is encoded.
type op struct {
	kind    opKind
	class   uint8 // 0 light, 1 heavy
	alg     string
	sources []int32
	src     int32
	dst     int32
	batch   []dynamic.Op
}

type opKind uint8

const (
	opQuery opKind = iota
	opReach
	opArc
)

var kindNames = [...]string{"op.query", "op.reach", "op.arc"}

type queryBody struct {
	Algorithm string  `json:"algorithm"`
	Sources   []int32 `json:"sources"`
}

// encode renders the request the program will see: method, path and body.
func (o *op) encode() (method, path string, body []byte) {
	switch o.kind {
	case opQuery:
		body, _ = json.Marshal(queryBody{o.alg, o.sources}) // cannot fail: plain fields
		return http.MethodPost, "/v1/query", body
	case opArc:
		body, _ = json.Marshal(dynamic.Batch{Ops: o.batch})
		return http.MethodPost, "/v1/arc", body
	}
	return http.MethodGet, "/v1/reach?src=" + strconv.Itoa(int(o.src)) + "&dst=" + strconv.Itoa(int(o.dst)), nil
}

// reply is the union of the three reply shapes; fields a reply lacks stay zero.
type reply struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Cached    bool    `json:"cached"`

	Metrics         *router.Record `json:"metrics"` // /v1/query
	SuccessorCounts map[int32]int  `json:"successor_counts"`
	Shards          int            `json:"shards"` // via tcrouter
	Retries         int            `json:"retries"`
	Hedges          int            `json:"hedges"`

	Reachable bool  `json:"reachable"` // /v1/reach
	IndexHit  bool  `json:"index_hit"`
	Overlay   bool  `json:"overlay"`
	Seq       int64 `json:"seq"`
	PageIO    int64 `json:"page_io"`

	Applied int `json:"applied"` // /v1/arc
	Pending int `json:"pending"`
}

// stream yields a client's next request. Each client owns a math/rand source
// derived from (seed, client), so a faster build only gets further along the
// same stream.
type stream func() op

func clientRand(seed int64, client int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + salt))
}

// randomSources draws k distinct sources. Distinct on purpose: at this
// commit SRCH answers a source listed twice with its successors counted
// twice, and a workload is made of operations that do not fail.
func randomSources(rng *rand.Rand, n, k int) []int32 {
	s := make([]int32, 0, k)
draw:
	for len(s) < k {
		v := int32(1 + rng.Intn(n))
		for _, have := range s {
			if have == v {
				continue draw
			}
		}
		s = append(s, v)
	}
	return s
}

func randomReach(rng *rand.Rand, n int) op {
	return op{kind: opReach, class: 0, src: int32(1 + rng.Intn(n)), dst: int32(1 + rng.Intn(n))}
}

// counters is what one client saw the program report, summed over the
// verified operations that completed inside the window.
type counters struct {
	queries, reaches, writes int64
	cached, misses           int64
	indexHits, overlays      int64
	reachPageIO              int64
	eng                      engineSums
	roundtripMS, transportMS float64
	nonengineMS, gapMS       float64
	shards, retries, hedges  int64
	reqBytes, respBytes      int64
	applied, rejects         int64
	pendingMax               int
}

func (c *counters) merge(o *counters) {
	c.queries += o.queries
	c.reaches += o.reaches
	c.writes += o.writes
	c.cached += o.cached
	c.misses += o.misses
	c.indexHits += o.indexHits
	c.overlays += o.overlays
	c.reachPageIO += o.reachPageIO
	c.eng.add(&o.eng.r)
	c.roundtripMS += o.roundtripMS
	c.transportMS += o.transportMS
	c.nonengineMS += o.nonengineMS
	c.gapMS += o.gapMS
	c.shards += o.shards
	c.retries += o.retries
	c.hedges += o.hedges
	c.reqBytes += o.reqBytes
	c.respBytes += o.respBytes
	c.applied += o.applied
	c.rejects += o.rejects
	c.pendingMax = max(c.pendingMax, o.pendingMax)
}

// client is one load-generating goroutine with its own keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	ck   *checker // nil: answers cannot be checked against a fixed graph (mid-mutation)
	tr   *tracer
	win  window
	trc  bool // the run is traced: odd segments record spans

	ackSeq *atomic.Int64 // mutate_mix: highest write sequence acknowledged so far

	buf       bytes.Buffer
	opSeq     int64
	samples   []sample
	cnt       counters
	attempted int64
	failed    int64
	failures  []string
	lateNS    []int64 // paced writer: how late each in-window batch was sent
}

func newClient(id int, base string, ck *checker, epoch time.Time) *client {
	return &client{
		base: base, ck: ck, tr: newTracer(epoch, id),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 4 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// exec sends one request, checks the reply and, if it completed inside the
// window, records it. A zero due means the request is timed from its send;
// a paced request is timed from when it was due.
func (c *client) exec(o *op, due time.Time) {
	c.attempted++
	seg := c.win.segment(time.Now())
	c.tr.on = c.trc && seg >= 0 && seg%2 == 1
	ot := c.tr.op(kindNames[o.kind], c.opSeq)
	c.opSeq++
	defer ot.finish()

	e := ot.child("client.encode")
	method, path, body := o.encode()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	ot.end(e)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return
	}
	var minSeq int64
	if c.ackSeq != nil {
		minSeq = c.ackSeq.Load()
	}

	rt := ot.child("http.roundtrip")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	ot.end(rt)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.cnt.rejects++
		}
		c.fail("%s %s: status %d: %.120s", method, path, resp.StatusCode, c.buf.Bytes())
		return
	}

	d := ot.child("client.decode")
	var rep reply
	err = json.Unmarshal(c.buf.Bytes(), &rep)
	ot.end(d)
	if err != nil {
		c.fail("%s %s: bad reply: %v", method, path, err)
		return
	}

	v := ot.child("oracle.verify")
	why := c.verify(o, &rep, minSeq)
	ot.end(v)
	if why != "" {
		c.fail("%s %s %s: %s", method, path, body, why)
		return
	}
	if o.kind == opArc && c.ackSeq != nil {
		c.ackSeq.Store(rep.Seq)
	}

	roundtrip := done.Sub(t0)
	engine := 0.0
	if rep.Metrics != nil && !rep.Cached {
		engine = rep.Metrics.RestructureMS + rep.Metrics.ComputeMS
		ot.attr(rt, "restructure_ms", rep.Metrics.RestructureMS)
		ot.attr(rt, "compute_ms", rep.Metrics.ComputeMS)
		ot.attr(rt, "page_io", float64(rep.Metrics.TotalIO))
	}
	ot.attr(rt, "server_ms", rep.ElapsedMS)

	// A closed-loop request belongs to the segment it completed in; a
	// paced one to the segment it was due in, however late it ran.
	lat, at := roundtrip, done
	if !due.IsZero() {
		lat, at = done.Sub(due), due
	}
	if seg = c.win.segment(at); seg < 0 {
		return
	}
	if !due.IsZero() {
		c.lateNS = append(c.lateNS, int64(t0.Sub(due)))
	}
	c.samples = append(c.samples, sample{lat: int64(lat), seg: int8(seg), class: o.class})
	c.count(o, &rep, ms(roundtrip), engine, len(path)+len(body))
}

// verify returns why the reply is wrong, or "".
func (c *client) verify(o *op, rep *reply, minSeq int64) string {
	switch o.kind {
	case opQuery:
		if !c.ck.countsMatch(o.sources, rep.SuccessorCounts) {
			return fmt.Sprintf("successor_counts %v differ from the BFS oracle", rep.SuccessorCounts)
		}
	case opReach:
		if rep.Seq < minSeq {
			return fmt.Sprintf("answer at seq %d is older than acknowledged write %d", rep.Seq, minSeq)
		}
		if c.ck != nil && rep.Reachable != c.ck.reach(o.src, o.dst) {
			return fmt.Sprintf("reachable=%t differs from the BFS oracle", rep.Reachable)
		}
	case opArc:
		if rep.Applied != len(o.batch) {
			return fmt.Sprintf("applied %d of %d ops the generator knows to be effective", rep.Applied, len(o.batch))
		}
	}
	return ""
}

// count splits the round trip the way the trace does: transport is what the
// server did not account for, non-engine is what the server spent outside
// the two engine phases. Parts that would be negative are the gap.
func (c *client) count(o *op, rep *reply, roundtripMS, engineMS float64, reqBytes int) {
	n := &c.cnt
	n.reqBytes += int64(reqBytes)
	n.respBytes += int64(c.buf.Len())
	n.roundtripMS += roundtripMS
	transport := roundtripMS - rep.ElapsedMS
	nonengine := rep.ElapsedMS - engineMS
	if transport < 0 {
		n.gapMS -= transport
		transport = 0
	}
	if nonengine < 0 {
		n.gapMS -= nonengine
		nonengine = 0
	}
	n.transportMS += transport
	switch o.kind {
	case opQuery:
		n.queries++
		n.shards += int64(rep.Shards)
		n.retries += int64(rep.Retries)
		n.hedges += int64(rep.Hedges)
		if rep.Cached {
			n.cached++
		} else {
			n.misses++
			n.nonengineMS += nonengine
			n.eng.add(rep.Metrics)
		}
	case opReach:
		n.reaches++
		n.reachPageIO += rep.PageIO
		if rep.IndexHit {
			n.indexHits++
		}
		if rep.Overlay {
			n.overlays++
		}
	case opArc:
		n.writes++
		n.applied += int64(rep.Applied)
		n.pendingMax = max(n.pendingMax, rep.Pending)
	}
}

// counted sends exactly n requests of the stream, one after another: the
// soak, whose amount of work must not depend on how fast the build is.
func counted(next stream, n int) func(c *client, until time.Time) {
	return func(c *client, _ time.Time) {
		for i := 0; i < n; i++ {
			o := next()
			c.exec(&o, time.Time{})
		}
	}
}

// closedLoop sends the stream's next request as soon as the previous reply
// is in, until the deadline.
func closedLoop(next stream) func(c *client, until time.Time) {
	return func(c *client, until time.Time) {
		for time.Now().Before(until) {
			o := next()
			c.exec(&o, time.Time{})
		}
	}
}

// phase is one driven stretch of load and everything it measured.
type phase struct {
	segLen    time.Duration
	samples   []sample
	cnt       counters
	tracers   []*tracer
	attempted int64
	failed    int64
	failures  []string
	lateNS    []int64
}

// drive runs one loop per client against base for warm+length, the last
// length of it measured in nseg segments. With nseg 0 nothing is measured:
// the loops decide themselves when they are done.
func drive(base string, ck func() *checker, loops []func(c *client, until time.Time),
	ackSeq *atomic.Int64, warm, length time.Duration, nseg int, traced bool) *phase {
	epoch := time.Now()
	var win window
	if nseg > 0 {
		win = newWindow(epoch.Add(warm), length, nseg)
	}
	p := &phase{segLen: win.segLen}
	cs := make([]*client, len(loops))
	var wg sync.WaitGroup
	for i, loop := range loops {
		c := newClient(i, base, ck(), epoch)
		c.win, c.trc, c.ackSeq = win, traced, ackSeq
		cs[i] = c
		wg.Add(1)
		go func(loop func(*client, time.Time)) {
			defer wg.Done()
			loop(c, win.end())
			c.hc.CloseIdleConnections()
		}(loop)
	}
	wg.Wait()
	for _, c := range cs {
		p.samples = append(p.samples, c.samples...)
		p.cnt.merge(&c.cnt)
		p.tracers = append(p.tracers, c.tr)
		p.attempted += c.attempted
		p.failed += c.failed
		p.failures = append(p.failures, c.failures...)
		p.lateNS = append(p.lateNS, c.lateNS...)
	}
	return p
}

func (p *phase) into(out *outcome) {
	out.Attempted += p.attempted
	out.Failed += p.failed
	for _, f := range p.failures {
		if len(out.Failures) < 8 {
			out.Failures = append(out.Failures, f)
		}
	}
}

// segs lists every step-th segment of a window of nseg: all of them with
// step 1, the untraced (even) half of a traced window with step 2.
func segs(nseg, step int) []int {
	var s []int
	for i := 0; i < nseg; i += step {
		s = append(s, i)
	}
	return s
}
