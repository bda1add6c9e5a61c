// Package server exposes the transitive closure engine over HTTP/JSON: a
// query endpoint returning the paper's full metric record, a boolean
// reachability fast path, the planner's ranking for the loaded graph, and
// live operational metrics.
//
// The serving pipeline layers three production mechanics over the engine:
//
//   - admission control: queries flow through bounded per-tenant queues
//     into a fixed number of engine slots, each running one query at a
//     time (core.RunOne); when a tenant's queue is full, its requests are
//     rejected with 429 rather than piling up, and tenants take turns
//     round-robin, job by job, so one tenant's flood never starves another.
//   - result caching: a per-tenant LRU keyed on the canonical (algorithm,
//     sources, config) triple answers repeated queries with zero page I/O,
//     and single-flight deduplication collapses identical in-flight
//     queries onto one engine execution. Each tenant's cache is its own
//     quota: one tenant's working set cannot evict another's.
//   - deadlines: every request carries a context deadline (default or
//     per-request); expiry while queued or waiting returns 504 without
//     charging the engine.
//
// A server hosts one graph by default (New) or several named graphs
// (NewMulti): requests select a tenant with the graph= query parameter or
// the "graph" field of a query body, and metrics carry tenant labels so a
// scraper can tell the workloads apart. Each tenant also owns an adaptive
// planner (internal/planner.Adaptive) fed by every executed query; see
// docs/PLANNER.md.
//
// The stack is observable end to end: requests can carry phase-span
// traces (ring-buffered behind GET /debug/traces), GET /metrics serves
// Prometheus text exposition format with per-algorithm phase-time
// histograms, and requests over a slow-query threshold are logged with a
// replayable tcquery command line. See docs/OBSERVABILITY.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/index"
	"tcstudy/internal/obsv"
	"tcstudy/internal/pagedisk"
	"tcstudy/internal/planner"
)

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Workers is the number of engine slots: the peak number of queries
	// executing concurrently (default 8).
	Workers int
	// QueueDepth bounds each tenant's admission queue; a full queue
	// rejects that tenant's requests with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds each tenant's result cache (default 256; 0 keeps
	// single-flight deduplication but retains nothing). The bound is a
	// per-tenant quota: every named graph gets its own cache of this size.
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request does not
	// set one (default 30s).
	DefaultTimeout time.Duration
	// DefaultConfig supplies engine configuration fields a request leaves
	// unset (buffer pages, policies).
	DefaultConfig core.Config
	// Index, when set, answers GET /v1/reach from the prebuilt
	// reachability index with zero page I/O and no engine work; without one
	// the engine answers. It must cover the same node space as the
	// database. Single-graph servers only; NewMulti takes per-graph indexes
	// via NamedGraph.Index.
	Index *index.Index
	// Dynamic, when set, turns the server into a read/write graph service:
	// POST /v1/arc accepts mutation batches and GET /v1/reach is answered
	// by the dynamic service (sealed index generation or, while a rebuild
	// is in flight, the delta overlay) instead of Options.Index. The
	// engine endpoints (/v1/query, /v1/plan) keep serving the frozen base
	// relation. Single-graph servers only. See docs/DYNAMIC.md.
	Dynamic *dynamic.Service
	// Planner tunes each tenant's adaptive planner (decay, exploration
	// epsilon, confidence, latency weight); zero values select the
	// planner's defaults, including exploration off. See docs/PLANNER.md.
	Planner planner.Config
	// StaticPlan disables adaptive planning entirely: /v1/plan serves the
	// pure static cost-model ranking and executed queries record no
	// observations.
	StaticPlan bool
	// TraceBuffer, when positive, records the span tree of the most recent
	// TraceBuffer requests in a ring served by GET /debug/traces. Zero
	// disables request tracing entirely (no tracer is allocated and query
	// execution takes the untraced path).
	TraceBuffer int
	// SlowQuery, when positive, logs every request slower than this
	// threshold — with its span tree summary and a replayable tcquery
	// command line — through SlowLogf. Slow requests are traced even when
	// TraceBuffer is zero.
	SlowQuery time.Duration
	// SlowLogf receives slow-query log lines (default log.Printf).
	SlowLogf func(format string, args ...any)
	// ReplayArgs is the tcquery flag fragment reconstructing the served
	// graph (e.g. "-n 2000 -f 5 -l 200 -seed 1" or "-db closure.tcdb"),
	// prepended to the replay command of slow-query log entries. With
	// multiple graphs it describes the default tenant; other tenants'
	// trace entries carry their graph name instead.
	ReplayArgs string
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 8
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.DefaultConfig.BufferPages == 0 {
		o.DefaultConfig.BufferPages = 10
	}
	if o.DefaultConfig.PagePolicy == "" {
		o.DefaultConfig.PagePolicy = "lru"
	}
	if o.DefaultConfig.ListPolicy == "" {
		o.DefaultConfig.ListPolicy = "smallest"
	}
	if o.SlowLogf == nil {
		o.SlowLogf = log.Printf
	}
	return o
}

// NamedGraph is one tenant of a multi-graph server: a loaded database
// served under a name clients select with the graph= request parameter.
type NamedGraph struct {
	Name string
	DB   *core.Database
	// Index, when set, answers this tenant's /v1/reach requests from the
	// prebuilt reachability index.
	Index *index.Index
}

// tenant is the per-graph serving state: the database, its result cache
// (the tenant's quota), optional read index or dynamic service, the
// adaptive planner fed by this tenant's executions, and the tenant's
// counters.
type tenant struct {
	name  string
	db    *core.Database
	cache *resultCache
	idx   *index.Index
	dyn   *dynamic.Service
	adapt *planner.Adaptive
	tm    tenantCounters

	// profile builds the tenant's planner profile on first use (one DFS
	// plus sampled reachability probes) and reuses it for the server's
	// lifetime — the engine-visible graph is immutable.
	profile func() (planner.Profile, error)
}

// nodes is the node count reach probes are range-checked against: the
// probe's own, which is the dynamic service's when one serves the tenant.
func (tn *tenant) nodes() int {
	if tn.dyn != nil {
		return tn.dyn.N()
	}
	return tn.db.N()
}

// fingerprint is the tenant's dataset identity: the CRC-64 of the base
// relation (computed once, by the database), superseded by the dynamic
// service's live fingerprint.
func (tn *tenant) fingerprint() (uint64, error) {
	fp, err := tn.db.Fingerprint()
	if err == nil && tn.dyn != nil {
		fp = tn.dyn.Stats().Fingerprint
	}
	return fp, err
}

// Server serves reachability queries over one or more loaded databases.
type Server struct {
	opts   Options
	disp   *dispatcher
	met    *Metrics
	traces *ring[TraceEntry]
	mux    *http.ServeMux

	tenants map[string]*tenant
	names   []string // sorted tenant names (for stable output)
	def     *tenant  // the tenant requests without graph= go to
}

// New builds a server over an already-loaded database, served as the
// single default tenant.
func New(db *core.Database, opts Options) *Server {
	s, err := NewMulti([]NamedGraph{{Name: api.DefaultGraph, DB: db, Index: opts.Index}}, opts)
	if err != nil {
		// A single default graph cannot fail multi-tenant validation.
		panic(err)
	}
	return s
}

// NewMulti builds a server hosting several named graphs. The first graph
// is the default tenant (requests without graph= go to it). Options.Index
// and Options.Dynamic are single-graph features: Dynamic is rejected with
// more than one graph, Index is ignored in favor of NamedGraph.Index.
func NewMulti(graphs []NamedGraph, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if len(graphs) == 0 {
		return nil, errors.New("server: no graphs to serve")
	}
	if opts.Dynamic != nil && len(graphs) > 1 {
		return nil, errors.New("server: the dynamic graph service is single-graph only")
	}
	s := &Server{
		opts:    opts,
		traces:  newRing[TraceEntry](opts.TraceBuffer),
		mux:     http.NewServeMux(),
		tenants: make(map[string]*tenant, len(graphs)),
	}
	for i, g := range graphs {
		name := g.Name
		if name == "" {
			name = api.DefaultGraph
		}
		if g.DB == nil {
			return nil, fmt.Errorf("server: graph %q has no database", name)
		}
		if _, dup := s.tenants[name]; dup {
			return nil, fmt.Errorf("server: duplicate graph name %q", name)
		}
		tn := &tenant{
			name:  name,
			db:    g.DB,
			cache: newResultCache(opts.CacheEntries),
			idx:   g.Index,
		}
		tn.profile = sync.OnceValues(func() (planner.Profile, error) {
			arcs, err := tn.db.Arcs()
			if err != nil {
				return planner.Profile{}, err
			}
			return planner.BuildProfile(graph.New(tn.db.N(), arcs), 16, 1)
		})
		if tn.idx != nil && tn.idx.N() != g.DB.N() {
			return nil, fmt.Errorf("server: graph %q: index covers %d nodes but the database has %d",
				name, tn.idx.N(), g.DB.N())
		}
		if !opts.StaticPlan {
			tn.adapt = planner.NewAdaptive(opts.Planner)
		}
		s.tenants[name] = tn
		s.names = append(s.names, name)
		if i == 0 {
			s.def = tn
		}
	}
	sort.Strings(s.names)
	s.def.dyn = opts.Dynamic
	s.disp = newDispatcher(core.RunOne, func(d time.Duration) { s.met.admissionWait.Observe(d.Seconds()) },
		s.names, opts.Workers, opts.QueueDepth)
	s.met = newMetrics(s)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/reach", s.handleReach)
	s.mux.HandleFunc("GET /v1/plan", s.handlePlan)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.def.dyn != nil {
		s.mux.HandleFunc("POST /v1/arc", s.handleArc)
		s.def.dyn.SetOnRebuild(func(gen int64, replayed int, took time.Duration) {
			s.traces.add(TraceEntry{
				Time:      time.Now(),
				Endpoint:  "rebuild",
				ElapsedMS: millis(took),
				Algorithm: fmt.Sprintf("generation %d (+%d replayed)", gen, replayed),
			})
		})
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the live counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.met }

// Graphs returns the served tenant names, sorted.
func (s *Server) Graphs() []string { return append([]string(nil), s.names...) }

// Close stops admitting queries and drains in-flight work.
func (s *Server) Close() { s.disp.Close() }

// tenantFor resolves the tenant a request addresses: the graph= query
// parameter, then the request body's graph field, then the default
// tenant. An unknown name is a client error listing the served graphs.
func (s *Server) tenantFor(r *http.Request, bodyGraph string) (*tenant, error) {
	name := r.URL.Query().Get("graph")
	if name == "" {
		name = bodyGraph
	}
	if name == "" {
		return s.def, nil
	}
	if tn, ok := s.tenants[name]; ok {
		return tn, nil
	}
	return nil, badRequest("unknown graph %q (serving: %s)", name, strings.Join(s.names, ", "))
}

// httpError is an error with an HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// retryAfterMS is the retry hint attached to 503 responses for transient
// storage faults. The fault is gone the moment the engine retries (the
// backing store is intact), so the hint only spreads out the retry burst.
const retryAfterMS = 50

// fail maps an error to its HTTP status and counts it. Input-validation
// failures are 400s; a transient storage fault — a failed page read or
// write under the engine, which the next attempt may well not hit — is a
// 503 with retry hints, never a 500: the request was well-formed and the
// database is intact. An admission rejection is additionally charged to
// the rejected tenant's counters when tn is known.
func (s *Server) fail(w http.ResponseWriter, tn *tenant, err error) {
	status, msg, counter, transient := http.StatusInternalServerError, err.Error(), s.met.Errors, false
	var he *httpError
	var invalid *core.InvalidInputError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.As(err, &invalid):
		status, msg = http.StatusBadRequest, invalid.Reason
	case errors.Is(err, ErrSaturated), errors.Is(err, dynamic.ErrBacklog):
		status, counter = http.StatusTooManyRequests, s.met.Rejected
		if tn != nil {
			tn.tm.Rejected.Add(1)
		}
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, counter = http.StatusGatewayTimeout, s.met.Timeouts
	case pagedisk.IsTransient(err), errors.Is(err, dynamic.ErrFutureSeq):
		// ErrFutureSeq: the replica simply has not applied the writes the
		// client observed elsewhere yet; a retry lands after the log catches up.
		status, counter, transient = http.StatusServiceUnavailable, s.met.StorageFaults, true
	}
	counter.Add(1)
	if transient {
		w.Header().Set("Retry-After", "1")
		api.WriteJSON(w, status, api.Error{Message: msg, Transient: true, Retry: true, RetryAfterMS: retryAfterMS})
		return
	}
	api.WriteJSON(w, status, api.Error{Message: msg})
}

// buildRequest turns a query body into the engine request it asks for:
// server defaults under the body's overrides, then core's validation and
// normalisation against the tenant's database.
func (s *Server) buildRequest(tn *tenant, qr api.QueryRequest) (core.Request, error) {
	cfg := s.opts.DefaultConfig
	if qr.BufferPages != 0 {
		cfg.BufferPages = qr.BufferPages
	}
	if qr.PagePolicy != "" {
		cfg.PagePolicy = qr.PagePolicy
	}
	if qr.ListPolicy != "" {
		cfg.ListPolicy = qr.ListPolicy
	}
	if qr.ILIMIT != 0 {
		cfg.ILIMIT = qr.ILIMIT
	}
	alg := core.Algorithm(strings.ToLower(strings.TrimSpace(qr.Algorithm)))
	return core.Request{Alg: alg, Query: core.Query{Sources: qr.Sources}, Cfg: cfg}.Validate(tn.db)
}

// cacheKey canonicalizes a validated request: the source set (already free
// of repeats) is sorted — the engine's answer is a per-source map, so order
// cannot matter — and every config field that changes engine behaviour
// participates. Caches are per tenant, so the graph name does not
// participate.
func cacheKey(req core.Request) string {
	srcs := append([]int32(nil), req.Query.Sources...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%s|m=%d|pp=%s|lp=%s|il=%g|nomark=%t|idx=%t|noclus=%t|s=",
		req.Alg, req.Cfg.BufferPages, req.Cfg.PagePolicy, req.Cfg.ListPolicy,
		req.Cfg.ILIMIT, req.Cfg.DisableMarking, req.Cfg.ChargeIndexIO, req.Cfg.DisableClustering)
	for _, v := range srcs {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// tracing reports whether requests should carry a tracer: either the
// /debug/traces ring is recording or a slow-query threshold is set. When
// false, requests take the untraced path — no tracer is allocated and the
// engine's span hooks stay nil.
func (s *Server) tracing() bool { return s.traces.enabled() || s.opts.SlowQuery > 0 }

// execute runs one validated request for the accepted tenant, under the
// effective deadline (timeoutMS when positive, else the server default),
// through its cache, single-flight and admission, attributing served work
// to the metrics and feeding the executed result into the tenant's adaptive
// planner — the observation loop that turns measured phase times and page
// I/O into future plan rankings. On a traced call the engine's phase spans
// hang under the root span and the entry records what ran, how it was
// served and the command that replays it.
func (c *call) execute(ctx context.Context, timeoutMS int, req core.Request) (res *core.Result, hit, shared bool, err error) {
	s, tn := c.s, c.tn
	timeout := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if c.root != nil {
		req.Cfg.Trace = c.root
		c.entry.Algorithm = string(req.Alg)
		c.entry.Sources = req.Query.Sources
		c.entry.Replay = replayCommand(s.opts.ReplayArgs, req)
	}
	res, hit, shared, err = tn.cache.Do(ctx, cacheKey(req), func() (*core.Result, error) {
		r, err := s.disp.SubmitTenant(ctx, tn.name, tn.db, req)
		if err != nil {
			return nil, err
		}
		io := r.Metrics.TotalIO()
		s.met.PagesServed.Add(io)
		tn.tm.PagesServed.Add(io)
		s.met.TuplesServed.Add(r.Metrics.DistinctTuples)
		s.met.ObserveEngine(string(req.Alg), r.Metrics)
		if tn.adapt != nil {
			if prof, perr := tn.profile(); perr == nil {
				tn.adapt.Observe(prof, len(req.Query.Sources), req.Cfg.BufferPages, req.Alg,
					r.Metrics.RestructureTime+r.Metrics.ComputeTime, io)
			}
		}
		return r, nil
	})
	if err == nil {
		c.entry.Cached, c.entry.Deduplicated = hit, shared
		switch {
		case hit:
			s.met.CacheHits.Add(1)
			tn.tm.CacheHits.Add(1)
		case shared:
			s.met.Deduplicated.Add(1)
		default:
			s.met.CacheMisses.Add(1)
			tn.tm.CacheMisses.Add(1)
		}
	}
	return res, hit, shared, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	c := s.begin(w)
	defer c.end()
	var qr api.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
		c.fail(badRequest("bad request body: %v", err))
		return
	}
	tn, err := s.tenantFor(r, qr.Graph)
	if err != nil {
		c.fail(err)
		return
	}
	req, err := s.buildRequest(tn, qr)
	if err != nil {
		c.fail(err)
		return
	}
	if c.accept("query", tn) {
		c.root.Annotate(obsv.KV("algorithm", string(req.Alg)), obsv.KV("sources", len(req.Query.Sources)))
	}
	res, hit, shared, err := c.execute(r.Context(), qr.TimeoutMS, req)
	if err != nil {
		c.fail(err)
		return
	}
	c.root.Annotate(obsv.KV("cached", hit), obsv.KV("deduplicated", shared))
	c.ok(s.met.Queries, tn.tm.Queries, func(elapsedMS float64) any {
		resp := api.QueryResponse{
			Algorithm:       string(req.Alg),
			Graph:           s.responseGraph(tn),
			Sources:         req.Query.Sources,
			Cached:          hit,
			Deduplicated:    shared,
			ElapsedMS:       elapsedMS,
			Metrics:         api.RecordOf(res.Metrics),
			SuccessorCounts: make(map[int32]int, len(res.Successors)),
		}
		for node, succ := range res.Successors {
			resp.SuccessorCounts[node] = len(succ)
		}
		if qr.IncludeSuccessors {
			resp.Successors = res.Successors
		}
		return resp
	})
}

// responseGraph names the tenant in responses of multi-graph servers;
// single-graph responses stay byte-compatible with earlier versions.
func (s *Server) responseGraph(tn *tenant) string {
	if len(s.tenants) == 1 {
		return ""
	}
	return tn.name
}

// handleReach answers src->dst reachability from the tenant's one probe
// (answerReach). A node reaches itself only through a cycle, matching
// closure semantics.
func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	c := s.begin(w)
	defer c.end()
	q := r.URL.Query()
	src, err1 := parseNode(q.Get("src"))
	dst, err2 := parseNode(q.Get("dst"))
	if err1 != nil || err2 != nil {
		c.fail(badRequest("reach needs integer src and dst parameters"))
		return
	}
	tn, err := s.tenantFor(r, "")
	if err != nil {
		c.fail(err)
		return
	}
	if err := checkReach(src, dst, tn.nodes()); err != nil {
		c.fail(err)
		return
	}
	if c.accept("reach", tn) {
		c.root.Annotate(obsv.KV("src", src), obsv.KV("dst", dst))
		c.entry.Sources = []int32{src}
	}
	resp := api.ReachResponse{Src: src, Dst: dst, Graph: s.responseGraph(tn)}
	if err := c.answerReach(r.Context(), q, &resp); err != nil {
		c.fail(err)
		return
	}
	c.entry.IndexHit = resp.IndexHit
	c.ok(s.met.Reaches, tn.tm.Reaches, func(elapsedMS float64) any {
		resp.ElapsedMS = elapsedMS
		return resp
	})
}

// answerReach asks the accepted tenant's one reach probe whether resp.Src
// reaches resp.Dst and records in resp what it found and where. The dynamic
// service answers from its sealed index generation or, while a rebuild is
// in flight, from the delta overlay; otherwise a loaded index answers —
// either way an O(1)/O(log k) label probe with zero page I/O and no engine
// involvement. A tenant with neither expands the source's successor set
// with SRCH — the engine's per-source fast path — and caches it, so a warm
// source answers any destination with zero page I/O.
func (c *call) answerReach(ctx context.Context, q url.Values, resp *api.ReachResponse) (err error) {
	s, tn, src, dst := c.s, c.tn, resp.Src, resp.Dst
	switch {
	case tn.dyn != nil:
		probe := c.root.Child("dynamic-probe")
		defer probe.Finish()
		resp.Reachable, resp.IndexHit, resp.Seq, err = tn.dyn.Reach(src, dst, int64(atoiDefault(q.Get("seq"), 0)))
		if err != nil {
			return err
		}
		probe.Annotate(obsv.KV("reachable", resp.Reachable), obsv.KV("index_hit", resp.IndexHit))
		resp.Overlay = !resp.IndexHit
		if resp.IndexHit {
			s.met.IndexHits.Add(1)
		} else {
			s.met.OverlayReads.Add(1)
		}
	case tn.idx != nil:
		probe := c.root.Child("index-probe")
		resp.Reachable, resp.IndexHit = tn.idx.Reach(src, dst), true
		probe.Annotate(obsv.KV("reachable", resp.Reachable))
		probe.Finish()
		s.met.IndexHits.Add(1)
	default:
		s.met.EngineFallbacks.Add(1)
		req, err := s.buildRequest(tn, api.QueryRequest{Algorithm: string(core.SRCH), Sources: []int32{src}})
		if err != nil {
			return err
		}
		res, hit, _, err := c.execute(ctx, atoiDefault(q.Get("timeout_ms"), 0), req)
		if err != nil {
			return err
		}
		resp.Reachable, resp.Cached = slices.Contains(res.Successors[src], dst), hit
		if !hit {
			resp.PageIO = res.Metrics.TotalIO()
		}
		c.root.Annotate(obsv.KV("reachable", resp.Reachable), obsv.KV("cached", hit))
	}
	return nil
}

// handleArc applies one mutation batch — inserts and deletes of arcs —
// against the dynamic graph service. The whole batch is validated before
// any op applies, takes one sequence number, and the response carries the
// post-batch fingerprint so a router can verify replica convergence.
func (s *Server) handleArc(w http.ResponseWriter, r *http.Request) {
	c := s.begin(w)
	defer c.end()
	dyn := s.def.dyn
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxArcBody))
	if err != nil {
		c.fail(badRequest("read mutation batch: %v", err))
		return
	}
	batch, err := dynamic.ParseBatch(body, dyn.N(), dyn.MaxBatchOps())
	if err != nil {
		c.fail(badRequest("%v", err))
		return
	}
	// No tenant: mutations have no tenant series, and a backlog 429 is the
	// service's, not admission control's, so it is charged to no tenant.
	if c.accept("arc", nil) {
		c.root.Annotate(obsv.KV("ops", len(batch.Ops)))
	}
	apply := c.root.Child("apply")
	res, err := dyn.Apply(batch.Ops)
	apply.Finish()
	if err != nil {
		c.fail(err)
		return
	}
	s.met.MutationsApplied.Add(int64(res.Applied))
	c.root.Annotate(obsv.KV("seq", res.Seq), obsv.KV("applied", res.Applied))
	c.ok(s.met.ArcWrites, nil, func(elapsedMS float64) any {
		return api.ArcResponse{
			Seq:         res.Seq,
			Applied:     res.Applied,
			Noops:       res.Noops,
			Merged:      res.Merged,
			Rebuilding:  res.Dirty,
			Generation:  res.Generation,
			Pending:     res.Pending,
			Fingerprint: fmt.Sprintf("%016x", res.Fingerprint),
			ElapsedMS:   elapsedMS,
		}
	})
}

// handlePlan ranks the algorithms for the tenant's graph. The statistical
// profile (one DFS plus sampled reachability probes) is built on first use
// and reused for the server's lifetime — the engine-visible graph is
// immutable. By default the ranking is adaptive: the static cost model
// blended with the tenant's decayed observation store (identical to the
// static ranking while the store is cold). ?mode=static forces the pure
// cost-model view.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	tn, err := s.tenantFor(r, "")
	if err != nil {
		s.fail(w, nil, err)
		return
	}
	profile, err := tn.profile()
	if err != nil {
		s.fail(w, nil, fmt.Errorf("planner profile: %w", err))
		return
	}
	numSources := atoiDefault(r.URL.Query().Get("sources"), 1)
	if numSources < 0 {
		numSources = 0
	}
	m := atoiDefault(r.URL.Query().Get("m"), s.opts.DefaultConfig.BufferPages)
	static := tn.adapt == nil || r.URL.Query().Get("mode") == "static"
	resp := api.PlanResponse{
		Profile: api.PlanProfile{
			Nodes: profile.N, Arcs: profile.Arcs,
			H: profile.H, W: profile.W,
			AvgDegree: profile.AvgDegree, Reach: profile.Reach,
			CondNodes: profile.CondNodes, CondArcs: profile.CondArcs,
			Density: profile.Density,
		},
		Graph:   s.responseGraph(tn),
		Sources: numSources,
		BufferM: m,
	}
	if static {
		resp.Mode = "static"
		for _, e := range planner.Estimates(profile, numSources, m) {
			resp.Estimates = append(resp.Estimates, api.PlanEstimate{Algorithm: string(e.Alg), IO: e.IO, Why: e.Why})
		}
	} else {
		resp.Mode = "adaptive"
		for _, d := range tn.adapt.Rank(profile, numSources, m) {
			resp.Estimates = append(resp.Estimates, api.PlanEstimate{
				Algorithm:         string(d.Alg),
				IO:                d.IO,
				Why:               d.Why,
				BlendedIO:         d.Blended,
				Samples:           d.Samples,
				ObservedIO:        d.ObsIO,
				ObservedLatencyMS: millis(d.ObsLatency),
				Explored:          d.Explored,
			})
		}
		st := tn.adapt.Stats()
		resp.Planner = &api.PlanStats{
			Decisions:    st.Decisions,
			Hits:         st.Hits,
			HitRate:      st.HitRate,
			Explorations: st.Explorations,
			Observations: st.Observations,
		}
	}
	s.met.Plans.Add(1)
	tn.tm.Plans.Add(1)
	api.WriteJSON(w, http.StatusOK, resp)
}

// indexHealth describes the index serving reads. Only the dynamic service
// ever bypasses its sealed index (stale: a rebuild is in flight); the
// generation comes from whoever owns the index's lifecycle.
func indexHealth(idx *index.Index, stale bool, generation int64) *api.IndexHealth {
	return &api.IndexHealth{
		Arcs: idx.NumArcs(), Builder: idx.Builder(), Chains: idx.Chains(),
		Generation: generation, Nodes: idx.N(), Stale: stale,
	}
}

// healthBlock is one tenant's healthz fragment: graph shape, dataset
// identity, and the index/dynamic state when present.
func (tn *tenant) healthBlock() (api.GraphHealth, error) {
	fp, err := tn.fingerprint()
	if err != nil {
		return api.GraphHealth{}, err
	}
	b := api.GraphHealth{Arcs: tn.db.NumArcs(), Fingerprint: fmt.Sprintf("%016x", fp), Nodes: tn.db.N()}
	if tn.dyn != nil {
		st := tn.dyn.Stats()
		b.Arcs = st.NumArcs
		b.Index = indexHealth(tn.dyn.Index(), st.Dirty, st.Generation)
		b.Dynamic = &api.DynamicHealth{
			Generation: st.Generation, Mutations: st.Mutations, Pending: st.Pending,
			Rebuilding: st.Dirty, Rebuilds: st.Rebuilds, Seq: st.Seq,
		}
	} else if tn.idx != nil {
		b.Index = indexHealth(tn.idx, false, int64(tn.idx.Generation()))
	}
	return b, nil
}

// handleHealthz reports liveness plus the dataset identity a routing tier
// needs to decide whether this replica may join a fleet: the graph's
// CRC-64 fingerprint and, when a reachability index is loaded, its shape
// and generation. Replicas answering with different fingerprints serve
// different graphs and must not share a consistent-hash ring. A
// multi-graph server reports each tenant under "graphs" and a combined
// top-level fingerprint folding every tenant's identity, so fleets must
// agree tenant by tenant.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	graphs := make(map[string]api.GraphHealth, len(s.names))
	for _, name := range s.names {
		b, err := s.tenants[name].healthBlock()
		if err != nil {
			api.WriteJSON(w, http.StatusInternalServerError, api.Error{
				Message: fmt.Sprintf("dataset fingerprint (%s): %v", name, err), Status: "degraded",
			})
			return
		}
		graphs[name] = b
	}
	def := graphs[s.def.name]
	resp := api.Health{
		Arcs: def.Arcs, Dynamic: def.Dynamic, Fingerprint: def.Fingerprint, Graphs: graphs,
		Index: def.Index, Nodes: def.Nodes, Status: "ok",
		UptimeSeconds: time.Since(s.met.start).Seconds(),
	}
	if len(s.names) > 1 {
		// Fold every tenant's identity into the top-level fingerprint: two
		// multi-graph replicas agree exactly when every named graph agrees.
		h := fnv.New64a()
		for _, name := range s.names {
			fmt.Fprintf(h, "%s=%s\n", name, graphs[name].Fingerprint)
		}
		resp.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		resp.Graph = s.def.name
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the live counters. The default is Prometheus text
// exposition format (what a scraper expects at /metrics); the original
// JSON snapshot remains available as /metrics?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		api.WriteJSON(w, http.StatusOK, s.met.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.WritePrometheus(w)
}

// handleTraces serves the recent-request trace ring, newest first. With
// tracing disabled (TraceBuffer 0) it reports the feature as off rather
// than an empty list, so a probe can tell "no traffic" from "not
// recording".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces, _ := s.traces.snapshot()
	api.WriteJSON(w, http.StatusOK, struct {
		Enabled bool         `json:"enabled"`
		Traces  []TraceEntry `json:"traces"`
	}{s.traces.enabled(), traces})
}

// checkReach range-checks a reach probe's endpoints against an n-node graph.
func checkReach(src, dst int32, n int) error {
	if src < 1 || src > int32(n) {
		return badRequest("source node %d outside 1..%d", src, n)
	}
	if dst < 1 || dst > int32(n) {
		return badRequest("destination node %d outside 1..%d", dst, n)
	}
	return nil
}

func parseNode(v string) (int32, error) {
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return 0, err
	}
	return int32(n), nil
}

func atoiDefault(v string, def int) int {
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}
