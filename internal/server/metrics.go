package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/obsv"
	"tcstudy/internal/planner"
)

// Metrics is the server's live counter set, exported by the /metrics
// endpoint in Prometheus text exposition format (JSON remains available via
// ?format=json). Counters are lock-free atomics; latency quantiles come
// from a mutex-guarded ring of recent request latencies, so a snapshot is
// cheap enough to poll while serving traffic. Histograms — request
// latency, per-algorithm engine phase times, and buffer-pool hit ratio —
// are kept in Prometheus bucket form so a scraper can aggregate them
// across servers.
type Metrics struct {
	start time.Time

	// Request counters by endpoint.
	Queries atomic.Int64 // POST /v1/query requests accepted for processing
	Reaches atomic.Int64 // GET /v1/reach requests accepted for processing
	Plans   atomic.Int64 // GET /v1/plan requests

	// ArcWrites counts POST /v1/arc batches accepted; MutationsApplied the
	// individual ops within them that changed the graph.
	ArcWrites        atomic.Int64
	MutationsApplied atomic.Int64

	// Outcome counters.
	CacheHits       atomic.Int64 // answered straight from the result cache
	CacheMisses     atomic.Int64 // executed by the engine
	IndexHits       atomic.Int64 // /v1/reach answered by the reachability index
	OverlayReads    atomic.Int64 // /v1/reach answered by the delta overlay mid-rebuild
	EngineFallbacks atomic.Int64 // /v1/reach forced through the engine (index absent or stale)
	Deduplicated    atomic.Int64 // coalesced onto an identical in-flight query
	Rejected        atomic.Int64 // 429: admission queue full
	Timeouts        atomic.Int64 // 504: request deadline expired
	StorageFaults   atomic.Int64 // 503: transient storage fault under the engine
	Errors          atomic.Int64 // 4xx validation + other 5xx engine failures
	SlowQueries     atomic.Int64 // requests over the slow-query threshold

	// Work served by the engine (cache hits add nothing here — that page
	// I/O was already paid for by the miss that filled the cache).
	PagesServed  atomic.Int64 // page I/O of executed queries (the paper's metric)
	TuplesServed atomic.Int64 // distinct closure tuples materialized

	// InFlight is the number of requests currently being processed.
	InFlight atomic.Int64

	lat     latencyRing
	latHist *obsv.Histogram // request latency, seconds
	ratio   *obsv.Histogram // buffer-pool hit ratio of executed queries

	// Per-(algorithm, phase) engine time histograms, created lazily on the
	// first execution of each algorithm.
	phaseMu   sync.Mutex
	phaseHist map[phaseKey]*obsv.Histogram
}

type phaseKey struct {
	alg   string
	phase string
}

// NewMetrics returns a zeroed metric set with the clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		start:     time.Now(),
		latHist:   obsv.NewHistogram(obsv.DurationBuckets()...),
		ratio:     obsv.NewHistogram(obsv.RatioBuckets()...),
		phaseHist: make(map[phaseKey]*obsv.Histogram),
	}
}

// ObserveLatency records one served request's latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.lat.add(d)
	m.latHist.Observe(d.Seconds())
}

// ObserveEngine records the engine-level observations of one executed
// (non-cached) query: phase wall times per algorithm and the compute-phase
// buffer hit ratio.
func (m *Metrics) ObserveEngine(alg string, em core.Metrics) {
	m.phase(alg, "restructure").Observe(em.RestructureTime.Seconds())
	m.phase(alg, "compute").Observe(em.ComputeTime.Seconds())
	if em.ComputeBuffer.Hits+em.ComputeBuffer.Misses > 0 {
		m.ratio.Observe(em.ComputeBuffer.HitRatio())
	}
}

func (m *Metrics) phase(alg, phase string) *obsv.Histogram {
	k := phaseKey{alg, phase}
	m.phaseMu.Lock()
	h := m.phaseHist[k]
	if h == nil {
		h = obsv.NewHistogram(obsv.DurationBuckets()...)
		m.phaseHist[k] = h
	}
	m.phaseMu.Unlock()
	return h
}

// Snapshot is the JSON shape of /metrics?format=json.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QPS           float64 `json:"qps"` // completed requests / uptime

	Queries   int64 `json:"queries"`
	Reaches   int64 `json:"reaches"`
	Plans     int64 `json:"plans"`
	ArcWrites int64 `json:"arc_writes,omitempty"`

	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	IndexHits        int64   `json:"index_hits"`
	OverlayReads     int64   `json:"overlay_reads,omitempty"`
	MutationsApplied int64   `json:"mutations_applied,omitempty"`
	EngineFallbacks  int64   `json:"engine_fallbacks"`
	Deduplicated     int64   `json:"deduplicated"`
	Rejected         int64   `json:"rejected"`
	Timeouts         int64   `json:"timeouts"`
	StorageFaults    int64   `json:"storage_faults"`
	Errors           int64   `json:"errors"`
	SlowQueries      int64   `json:"slow_queries"`

	PagesServed  int64 `json:"pages_served"`
	TuplesServed int64 `json:"tuples_served"`
	InFlight     int64 `json:"in_flight"`

	LatencyMS LatencyQuantiles `json:"latency_ms"`
}

// LatencyQuantiles reports quantiles over the recent-latency window, in
// milliseconds.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	up := time.Since(m.start).Seconds()
	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	completed := m.Queries.Load() + m.Reaches.Load() + m.Plans.Load()
	s := Snapshot{
		UptimeSeconds:    up,
		Queries:          m.Queries.Load(),
		Reaches:          m.Reaches.Load(),
		Plans:            m.Plans.Load(),
		ArcWrites:        m.ArcWrites.Load(),
		CacheHits:        hits,
		CacheMisses:      misses,
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
		LatencyMS:        m.lat.quantiles(),
	}
	if up > 0 {
		s.QPS = float64(completed) / up
	}
	if hits+misses > 0 {
		s.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return s
}

// tenantCounters is one tenant's slice of the request counters. The global
// Metrics counters keep counting everything; these attribute the same
// events to a named graph for the tenant-labeled metric families.
type tenantCounters struct {
	Queries     atomic.Int64
	Reaches     atomic.Int64
	Plans       atomic.Int64
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	Rejected    atomic.Int64
	PagesServed atomic.Int64
}

// TenantState is the per-scrape snapshot of one tenant, passed into
// Prometheus by the caller because tenants (caches, queues, planners)
// belong to the server, not to Metrics.
type TenantState struct {
	Name        string
	Queries     int64
	Reaches     int64
	Plans       int64
	CacheHits   int64
	CacheMisses int64
	Rejected    int64
	PagesServed int64
	CacheLen    int
	CacheCap    int
	QueueDepth  int
	Adaptive    bool // Planner below is meaningful
	Planner     planner.Stats
}

// IndexState is the per-scrape snapshot of the serving reachability index,
// passed into Prometheus by the caller because the index (static or
// dynamic) belongs to the server, not to Metrics.
type IndexState struct {
	Present    bool  // an index is serving reads
	Stale      bool  // reads are falling back (engine or overlay)
	Generation int64 // static: in-place patch count; dynamic: rebuild generation
	Dynamic    bool  // the fields below are meaningful
	Seq        int64 // last mutation sequence number assigned
	Pending    int   // log batches not yet folded into the sealed index
	Mutations  int64 // individual ops applied since start
	Merges     int64 // SCC components merged by cycle-creating inserts
	Rebuilds   int64 // background generational rebuilds completed
}

// Prometheus renders the metric set in text exposition format. The queue
// gauges come from the caller because the admission queue belongs to the
// dispatcher, not to Metrics; likewise the tenant snapshots (the queue
// capacity is the per-tenant admission bound). When tenant snapshots are
// supplied, the tenant-labeled tc_tenant_* families are emitted, and the
// tc_planner_* families for every tenant running an adaptive planner.
func (m *Metrics) Prometheus(queueDepth, queueCap int, ix IndexState, tenants ...TenantState) string {
	e := obsv.NewExposition()
	e.Gauge("tc_uptime_seconds", "Seconds since the server started.",
		time.Since(m.start).Seconds())

	e.CounterFamily("tc_requests_total", "Requests accepted for processing, by endpoint.")
	e.Sample("tc_requests_total", []obsv.Label{{Name: "endpoint", Value: "arc"}},
		float64(m.ArcWrites.Load()))
	e.Sample("tc_requests_total", []obsv.Label{{Name: "endpoint", Value: "plan"}},
		float64(m.Plans.Load()))
	e.Sample("tc_requests_total", []obsv.Label{{Name: "endpoint", Value: "query"}},
		float64(m.Queries.Load()))
	e.Sample("tc_requests_total", []obsv.Label{{Name: "endpoint", Value: "reach"}},
		float64(m.Reaches.Load()))

	e.Counter("tc_cache_hits_total", "Queries answered from the result cache.",
		float64(m.CacheHits.Load()))
	e.Counter("tc_cache_misses_total", "Queries executed by the engine.",
		float64(m.CacheMisses.Load()))
	e.Counter("tc_index_hits_total", "Reach requests answered by the reachability index.",
		float64(m.IndexHits.Load()))
	e.Counter("tc_overlay_reads_total",
		"Reach requests answered by the delta overlay while a rebuild was in flight.",
		float64(m.OverlayReads.Load()))
	e.Counter("tc_reach_engine_fallback_total",
		"Reach requests forced through the engine because the index was absent or stale.",
		float64(m.EngineFallbacks.Load()))
	e.Counter("tc_deduplicated_total", "Queries coalesced onto an identical in-flight query.",
		float64(m.Deduplicated.Load()))
	e.Counter("tc_rejected_total", "Requests rejected with 429 by admission control.",
		float64(m.Rejected.Load()))
	e.Counter("tc_timeouts_total", "Requests that exceeded their deadline (504).",
		float64(m.Timeouts.Load()))
	e.Counter("tc_storage_faults_total", "Requests failed by a transient storage fault (503).",
		float64(m.StorageFaults.Load()))
	e.Counter("tc_errors_total", "Validation failures and non-transient engine errors.",
		float64(m.Errors.Load()))
	e.Counter("tc_slow_queries_total", "Requests over the slow-query threshold.",
		float64(m.SlowQueries.Load()))
	e.Counter("tc_pages_served_total", "Page I/O performed by executed queries.",
		float64(m.PagesServed.Load()))
	e.Counter("tc_tuples_served_total", "Distinct closure tuples materialized by executed queries.",
		float64(m.TuplesServed.Load()))

	e.Gauge("tc_in_flight", "Requests currently being processed.",
		float64(m.InFlight.Load()))
	e.GaugeFamily("tc_admission_queue_depth", "Jobs waiting in the admission queue.")
	e.Sample("tc_admission_queue_depth", nil, float64(queueDepth))
	e.GaugeFamily("tc_admission_queue_capacity", "Capacity of the admission queue.")
	e.Sample("tc_admission_queue_capacity", nil, float64(queueCap))

	if ix.Present {
		stale := 0.0
		if ix.Stale {
			stale = 1.0
		}
		e.Gauge("tc_index_stale",
			"1 while reads bypass the sealed index (stale static index or rebuild in flight).",
			stale)
		e.Gauge("tc_index_generation", "Generation of the serving reachability index.",
			float64(ix.Generation))
	}
	if ix.Dynamic {
		e.Counter("tc_mutations_total", "Individual arc mutations applied to the live graph.",
			float64(ix.Mutations))
		e.Counter("tc_scc_merges_total",
			"Strongly connected components merged in place by cycle-creating inserts.",
			float64(ix.Merges))
		e.Counter("tc_rebuilds_total", "Background generational index rebuilds completed.",
			float64(ix.Rebuilds))
		e.Gauge("tc_mutation_seq", "Last mutation sequence number assigned.",
			float64(ix.Seq))
		e.Gauge("tc_mutation_pending",
			"Mutation log batches not yet folded into the sealed index generation.",
			float64(ix.Pending))
	}

	if len(tenants) > 0 {
		tl := func(name string) []obsv.Label {
			return []obsv.Label{{Name: "tenant", Value: name}}
		}
		te := func(name, endpoint string) []obsv.Label {
			return []obsv.Label{{Name: "tenant", Value: name}, {Name: "endpoint", Value: endpoint}}
		}
		e.CounterFamily("tc_tenant_requests_total",
			"Requests accepted for processing, by tenant and endpoint.")
		for _, t := range tenants {
			e.Sample("tc_tenant_requests_total", te(t.Name, "plan"), float64(t.Plans))
			e.Sample("tc_tenant_requests_total", te(t.Name, "query"), float64(t.Queries))
			e.Sample("tc_tenant_requests_total", te(t.Name, "reach"), float64(t.Reaches))
		}
		// One family at a time: the text format wants a family's samples in
		// one group under its HELP/TYPE lines.
		perTenant := func(typ func(name, help string), name, help string, v func(TenantState) float64) {
			typ(name, help)
			for _, t := range tenants {
				e.Sample(name, tl(t.Name), v(t))
			}
		}
		perTenant(e.CounterFamily, "tc_tenant_cache_hits_total",
			"Queries answered from the tenant's result cache.",
			func(t TenantState) float64 { return float64(t.CacheHits) })
		perTenant(e.CounterFamily, "tc_tenant_cache_misses_total",
			"Tenant queries executed by the engine.",
			func(t TenantState) float64 { return float64(t.CacheMisses) })
		perTenant(e.CounterFamily, "tc_tenant_rejected_total",
			"Tenant requests rejected with 429 by admission control.",
			func(t TenantState) float64 { return float64(t.Rejected) })
		perTenant(e.CounterFamily, "tc_tenant_pages_served_total",
			"Page I/O performed by the tenant's executed queries.",
			func(t TenantState) float64 { return float64(t.PagesServed) })
		perTenant(e.GaugeFamily, "tc_tenant_cache_entries", "Entries in the tenant's result cache.",
			func(t TenantState) float64 { return float64(t.CacheLen) })
		perTenant(e.GaugeFamily, "tc_tenant_cache_capacity", "Capacity of the tenant's result cache (its quota).",
			func(t TenantState) float64 { return float64(t.CacheCap) })
		perTenant(e.GaugeFamily, "tc_tenant_queue_depth", "Jobs waiting in the tenant's admission queue.",
			func(t TenantState) float64 { return float64(t.QueueDepth) })
		adaptive := false
		for _, t := range tenants {
			adaptive = adaptive || t.Adaptive
		}
		if adaptive {
			perPlanner := func(typ func(name, help string), name, help string, v func(planner.Stats) float64) {
				typ(name, help)
				for _, t := range tenants {
					if t.Adaptive {
						e.Sample(name, tl(t.Name), v(t.Planner))
					}
				}
			}
			perPlanner(e.CounterFamily, "tc_planner_decisions_total",
				"Executed queries whose algorithm choice was scored against observed evidence.",
				func(p planner.Stats) float64 { return float64(p.Decisions) })
			perPlanner(e.CounterFamily, "tc_planner_hits_total",
				"Scored decisions where the blended winner was the evidence-fastest algorithm.",
				func(p planner.Stats) float64 { return float64(p.Hits) })
			perPlanner(e.CounterFamily, "tc_planner_explorations_total",
				"Plan rankings that promoted a cold candidate (epsilon-greedy).",
				func(p planner.Stats) float64 { return float64(p.Explorations) })
			perPlanner(e.CounterFamily, "tc_planner_observations_total",
				"Executed queries folded into the planner's observation store.",
				func(p planner.Stats) float64 { return float64(p.Observations) })
			perPlanner(e.GaugeFamily, "tc_planner_hit_rate",
				"Rolling fraction of scored decisions where the planner picked the evidence-fastest algorithm.",
				func(p planner.Stats) float64 { return p.HitRate })
		}
	}

	e.HistogramFamily("tc_request_duration_seconds", "End-to-end request latency.")
	e.Histogram("tc_request_duration_seconds", nil, m.latHist.Snapshot())

	e.HistogramFamily("tc_buffer_hit_ratio",
		"Compute-phase buffer-pool hit ratio of executed queries.")
	e.Histogram("tc_buffer_hit_ratio", nil, m.ratio.Snapshot())

	e.HistogramFamily("tc_engine_phase_seconds",
		"Engine phase wall time by algorithm and phase.")
	m.phaseMu.Lock()
	keys := make([]phaseKey, 0, len(m.phaseHist))
	for k := range m.phaseHist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].alg != keys[j].alg {
			return keys[i].alg < keys[j].alg
		}
		return keys[i].phase < keys[j].phase
	})
	snaps := make([]obsv.HistogramSnapshot, len(keys))
	for i, k := range keys {
		snaps[i] = m.phaseHist[k].Snapshot()
	}
	m.phaseMu.Unlock()
	for i, k := range keys {
		e.Histogram("tc_engine_phase_seconds", []obsv.Label{
			{Name: "algorithm", Value: k.alg}, {Name: "phase", Value: k.phase},
		}, snaps[i])
	}
	return e.String()
}

// latencyWindow bounds the quantile computation; at 4096 samples the window
// covers well over a minute of traffic at the load generator's default rate.
const latencyWindow = 4096

// latencyRing keeps the most recent latencies for quantile estimation.
type latencyRing struct {
	mu    sync.Mutex
	buf   [latencyWindow]time.Duration
	next  int
	total int64
}

func (r *latencyRing) add(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % latencyWindow
	r.total++
	r.mu.Unlock()
}

func (r *latencyRing) quantiles() LatencyQuantiles {
	r.mu.Lock()
	n := int(r.total)
	if n > latencyWindow {
		n = latencyWindow
	}
	samples := make([]time.Duration, n)
	copy(samples, r.buf[:n])
	total := r.total
	r.mu.Unlock()
	if n == 0 {
		return LatencyQuantiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(p float64) float64 {
		i := int(p * float64(n-1))
		return float64(samples[i]) / float64(time.Millisecond)
	}
	return LatencyQuantiles{
		Count: total,
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   float64(samples[n-1]) / float64(time.Millisecond),
	}
}
