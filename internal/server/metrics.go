package server

import (
	"io"
	"sort"
	"sync/atomic"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/obsv"
	"tcstudy/internal/planner"
)

// Metrics is the server's live counter set, exported by the /metrics
// endpoint in Prometheus text exposition format (JSON remains available via
// ?format=json). Every family is declared once, in newMetrics, against an
// obsv.Registry; the fields below are the handles the request paths update
// — lock-free atomics resolved at construction. Latency quantiles come
// from a mutex-guarded ring of recent request latencies, so a snapshot is
// cheap enough to poll while serving traffic. Histograms — request
// latency, per-algorithm engine phase times, and buffer-pool hit ratio —
// are kept in Prometheus bucket form so a scraper can aggregate them
// across servers.
type Metrics struct {
	start time.Time
	reg   *obsv.Registry

	// Request counters by endpoint.
	Queries *atomic.Int64 // POST /v1/query requests accepted for processing
	Reaches *atomic.Int64 // GET /v1/reach requests accepted for processing
	Plans   *atomic.Int64 // GET /v1/plan requests

	// ArcWrites counts POST /v1/arc batches accepted; MutationsApplied the
	// individual ops within them that changed the graph.
	ArcWrites        *atomic.Int64
	MutationsApplied atomic.Int64

	// Outcome counters.
	CacheHits       *atomic.Int64 // answered straight from the result cache
	CacheMisses     *atomic.Int64 // executed by the engine
	IndexHits       *atomic.Int64 // /v1/reach answered by the reachability index
	OverlayReads    *atomic.Int64 // /v1/reach answered by the delta overlay mid-rebuild
	EngineFallbacks *atomic.Int64 // /v1/reach answered by the engine (the tenant has no index)
	Deduplicated    *atomic.Int64 // coalesced onto an identical in-flight query
	Rejected        *atomic.Int64 // 429: admission queue full
	Timeouts        *atomic.Int64 // 504: request deadline expired
	StorageFaults   *atomic.Int64 // 503: transient storage fault under the engine
	Errors          *atomic.Int64 // 4xx validation + other 5xx engine failures
	SlowQueries     *atomic.Int64 // requests over the slow-query threshold

	// Work served by the engine (cache hits add nothing here — that page
	// I/O was already paid for by the miss that filled the cache).
	PagesServed  *atomic.Int64 // page I/O of executed queries (the paper's metric)
	TuplesServed *atomic.Int64 // distinct closure tuples materialized

	// InFlight is the number of requests currently being processed.
	InFlight *atomic.Int64

	lat           *ring[time.Duration] // recent request latencies, for the JSON quantiles
	latHist       *obsv.Histogram      // request latency, seconds
	admissionWait *obsv.Histogram      // enqueue → engine slot granted, seconds
	ratio         *obsv.Histogram      // buffer-pool hit ratio of executed queries
	phase         *obsv.Vec            // engine time by (algorithm, phase); series appear on first execution
}

// tenantCounters is one tenant's slice of the request counters. The global
// Metrics counters keep counting everything; these attribute the same
// events to a named graph for the tenant-labeled metric families.
type tenantCounters struct {
	Queries, Reaches, Plans, CacheHits, CacheMisses, Rejected, PagesServed *atomic.Int64
}

// newMetrics declares every metric family the server exposes, in /metrics
// order, and resolves the handles the request paths update (the global
// ones into Metrics, each tenant's into its tenantCounters). Values that
// belong to other parts of the server — admission queues, the serving
// index, tenant caches and planners — are read through callbacks at scrape
// time. Index gauges cover the default tenant; per-tenant index state is
// in /healthz.
func newMetrics(s *Server) *Metrics {
	m := &Metrics{start: time.Now(), reg: obsv.NewRegistry(), lat: newRing[time.Duration](latencyWindow)}
	r := m.reg
	count := func(v int) float64 { return float64(v) }
	r.Gauge("tc_uptime_seconds", "Seconds since the server started.").
		Func(func() float64 { return time.Since(m.start).Seconds() })

	reqs := r.Counter("tc_requests_total", "Requests accepted for processing, by endpoint.", "endpoint")
	m.Queries, m.Reaches, m.Plans, m.ArcWrites = reqs.Int("query"), reqs.Int("reach"), reqs.Int("plan"), reqs.Int("arc")
	m.CacheHits = r.Counter("tc_cache_hits_total", "Queries answered from the result cache.").Int()
	m.CacheMisses = r.Counter("tc_cache_misses_total", "Queries executed by the engine.").Int()
	m.IndexHits = r.Counter("tc_index_hits_total", "Reach requests answered by the reachability index.").Int()
	m.OverlayReads = r.Counter("tc_overlay_reads_total",
		"Reach requests answered by the delta overlay while a rebuild was in flight.").Int()
	m.EngineFallbacks = r.Counter("tc_reach_engine_fallback_total",
		"Valid reach requests answered by the engine because the tenant has no index.").Int()
	m.Deduplicated = r.Counter("tc_deduplicated_total", "Queries coalesced onto an identical in-flight query.").Int()
	m.Rejected = r.Counter("tc_rejected_total", "Requests rejected with 429 by admission control.").Int()
	m.Timeouts = r.Counter("tc_timeouts_total", "Requests that exceeded their deadline (504).").Int()
	m.StorageFaults = r.Counter("tc_storage_faults_total", "Requests failed by a transient storage fault (503).").Int()
	m.Errors = r.Counter("tc_errors_total", "Validation failures and non-transient engine errors.").Int()
	m.SlowQueries = r.Counter("tc_slow_queries_total", "Requests over the slow-query threshold.").Int()
	m.PagesServed = r.Counter("tc_pages_served_total", "Page I/O performed by executed queries.").Int()
	m.TuplesServed = r.Counter("tc_tuples_served_total", "Distinct closure tuples materialized by executed queries.").Int()

	m.InFlight = r.Gauge("tc_in_flight", "Requests currently being processed.").Int()
	r.Gauge("tc_admission_queue_depth", "Jobs waiting in the admission queue.").
		Func(func() float64 { return count(s.disp.QueueDepth()) })
	r.Gauge("tc_admission_queue_capacity", "Capacity of the admission queue.").
		Func(func() float64 { return count(s.disp.QueueCap()) })
	r.Gauge("tc_engine_inflight", "Engine slots currently running a query.").
		Func(func() float64 { return count(s.disp.Inflight()) })

	// The serving index: the dynamic service when present (live generation,
	// pending log, merge and rebuild counters), the static index otherwise.
	// Only the dynamic service ever bypasses its sealed index.
	stale := func() bool { return false }
	var generation func() int64
	if dyn := s.def.dyn; dyn != nil {
		stale = func() bool { return dyn.Stats().Dirty }
		generation = func() int64 { return dyn.Stats().Generation }
	} else if idx := s.def.idx; idx != nil {
		generation = func() int64 { return int64(idx.Generation()) }
	}
	if generation != nil {
		r.Gauge("tc_index_stale", "1 while a rebuild is in flight and reads bypass the sealed index for the overlay.").
			Func(func() float64 {
				if stale() {
					return 1
				}
				return 0
			})
		r.Gauge("tc_index_generation", "Generation of the serving reachability index.").
			Func(func() float64 { return float64(generation()) })
	}
	if dyn := s.def.dyn; dyn != nil {
		r.Counter("tc_mutations_total", "Individual arc mutations applied to the live graph.").
			Func(func() float64 { return float64(dyn.Stats().Mutations) })
		r.Counter("tc_scc_merges_total", "Strongly connected components merged in place by cycle-creating inserts.").
			Func(func() float64 { return float64(dyn.Stats().Merges) })
		r.Counter("tc_rebuilds_total", "Background generational index rebuilds completed.").
			Func(func() float64 { return float64(dyn.Stats().Rebuilds) })
		r.Gauge("tc_mutation_seq", "Last mutation sequence number assigned.").
			Func(func() float64 { return float64(dyn.Stats().Seq) })
		r.Gauge("tc_mutation_pending", "Mutation log batches not yet folded into the sealed index generation.").
			Func(func() float64 { return count(dyn.Stats().Pending) })
	}

	treqs := r.Counter("tc_tenant_requests_total", "Requests accepted for processing, by tenant and endpoint.", "tenant", "endpoint")
	thits := r.Counter("tc_tenant_cache_hits_total", "Queries answered from the tenant's result cache.", "tenant")
	tmisses := r.Counter("tc_tenant_cache_misses_total", "Tenant queries executed by the engine.", "tenant")
	trejected := r.Counter("tc_tenant_rejected_total", "Tenant requests rejected with 429 by admission control.", "tenant")
	tpages := r.Counter("tc_tenant_pages_served_total", "Page I/O performed by the tenant's executed queries.", "tenant")
	tentries := r.Gauge("tc_tenant_cache_entries", "Entries in the tenant's result cache.", "tenant")
	tcap := r.Gauge("tc_tenant_cache_capacity", "Capacity of the tenant's result cache (its quota).", "tenant")
	tqueue := r.Gauge("tc_tenant_queue_depth", "Jobs waiting in the tenant's admission queue.", "tenant")
	for _, name := range s.names {
		tn := s.tenants[name]
		tn.tm = tenantCounters{
			Queries: treqs.Int(name, "query"), Reaches: treqs.Int(name, "reach"), Plans: treqs.Int(name, "plan"),
			CacheHits: thits.Int(name), CacheMisses: tmisses.Int(name),
			Rejected: trejected.Int(name), PagesServed: tpages.Int(name),
		}
		tentries.Func(func() float64 { return count(tn.cache.Len()) }, name)
		tcap.Func(func() float64 { return count(s.opts.CacheEntries) }, name)
		tqueue.Func(func() float64 { return count(s.disp.TenantQueueDepth(name)) }, name)
	}
	if !s.opts.StaticPlan {
		plan := func(v *obsv.Vec, val func(planner.Stats) float64) {
			for _, name := range s.names {
				adapt := s.tenants[name].adapt
				v.Func(func() float64 { return val(adapt.Stats()) }, name)
			}
		}
		plan(r.Counter("tc_planner_decisions_total", "Executed queries whose algorithm choice was scored against observed evidence.", "tenant"),
			func(p planner.Stats) float64 { return float64(p.Decisions) })
		plan(r.Counter("tc_planner_hits_total", "Scored decisions where the blended winner was the evidence-fastest algorithm.", "tenant"),
			func(p planner.Stats) float64 { return float64(p.Hits) })
		plan(r.Counter("tc_planner_explorations_total", "Plan rankings that promoted a cold candidate (epsilon-greedy).", "tenant"),
			func(p planner.Stats) float64 { return float64(p.Explorations) })
		plan(r.Counter("tc_planner_observations_total", "Executed queries folded into the planner's observation store.", "tenant"),
			func(p planner.Stats) float64 { return float64(p.Observations) })
		plan(r.Gauge("tc_planner_hit_rate", "Rolling fraction of scored decisions where the planner picked the evidence-fastest algorithm.", "tenant"),
			func(p planner.Stats) float64 { return p.HitRate })
	}

	m.latHist = r.Histogram("tc_request_duration_seconds", "End-to-end request latency.", obsv.DurationBuckets()).Hist()
	m.admissionWait = r.Histogram("tc_admission_wait_seconds",
		"Time an admitted query waited in its tenant's queue before an engine slot took it.", obsv.DurationBuckets()).Hist()
	m.ratio = r.Histogram("tc_buffer_hit_ratio", "Compute-phase buffer-pool hit ratio of executed queries.", obsv.RatioBuckets()).Hist()
	m.phase = r.Histogram("tc_engine_phase_seconds", "Engine phase wall time by algorithm and phase.",
		obsv.DurationBuckets(), "algorithm", "phase")
	return m
}

// millis is d in the wire's unit, fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ObserveLatency records one served request's latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.lat.add(d)
	m.latHist.Observe(d.Seconds())
}

// ObserveEngine records the engine-level observations of one executed
// (non-cached) query: phase wall times per algorithm and the compute-phase
// buffer hit ratio.
func (m *Metrics) ObserveEngine(alg string, em core.Metrics) {
	m.phase.Hist(alg, "restructure").Observe(em.RestructureTime.Seconds())
	m.phase.Hist(alg, "compute").Observe(em.ComputeTime.Seconds())
	if em.ComputeBuffer.Hits+em.ComputeBuffer.Misses > 0 {
		m.ratio.Observe(em.ComputeBuffer.HitRatio())
	}
}

// WritePrometheus renders the metric set in text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// Families lists the declared metric families in /metrics order.
func (m *Metrics) Families() []string { return m.reg.Names() }

// Snapshot captures the current counter values in the JSON shape of
// /metrics?format=json.
func (m *Metrics) Snapshot() api.Snapshot {
	up := time.Since(m.start).Seconds()
	s := api.Snapshot{
		UptimeSeconds:    up,
		Queries:          m.Queries.Load(),
		Reaches:          m.Reaches.Load(),
		Plans:            m.Plans.Load(),
		ArcWrites:        m.ArcWrites.Load(),
		CacheHits:        m.CacheHits.Load(),
		CacheMisses:      m.CacheMisses.Load(),
		IndexHits:        m.IndexHits.Load(),
		OverlayReads:     m.OverlayReads.Load(),
		MutationsApplied: m.MutationsApplied.Load(),
		EngineFallbacks:  m.EngineFallbacks.Load(),
		Deduplicated:     m.Deduplicated.Load(),
		Rejected:         m.Rejected.Load(),
		Timeouts:         m.Timeouts.Load(),
		StorageFaults:    m.StorageFaults.Load(),
		Errors:           m.Errors.Load(),
		SlowQueries:      m.SlowQueries.Load(),
		PagesServed:      m.PagesServed.Load(),
		TuplesServed:     m.TuplesServed.Load(),
		InFlight:         m.InFlight.Load(),
		LatencyMS:        quantiles(m.lat.snapshot()),
	}
	if up > 0 {
		s.QPS = float64(s.Queries+s.Reaches+s.Plans) / up
	}
	if s.CacheHits+s.CacheMisses > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
	}
	return s
}

// latencyWindow bounds the quantile computation; at 4096 samples the window
// covers well over a minute of traffic at the load generator's default rate.
const latencyWindow = 4096

// quantiles summarises a latency window: order statistics of the retained
// samples, and the true count of everything ever observed.
func quantiles(samples []time.Duration, total int64) api.LatencyQuantiles {
	n := len(samples)
	if n == 0 {
		return api.LatencyQuantiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(p float64) float64 { return millis(samples[int(p*float64(n-1))]) }
	return api.LatencyQuantiles{
		Count: total,
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   millis(samples[n-1]),
	}
}
