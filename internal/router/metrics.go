package router

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcstudy/internal/obsv"
)

// Metrics is the router's live counter set, served by GET /metrics in
// Prometheus text exposition format through the internal/obsv primitives.
// Per-shard traffic is labeled by replica URL so a scraper can see the
// consistent-hash spread; hedges and retries get their own counters
// because they are the router's two tail-latency defenses and their rates
// are the first thing to look at when p99 moves.
type Metrics struct {
	start time.Time

	Queries   atomic.Int64 // POST /v1/query requests accepted
	Reaches   atomic.Int64 // GET /v1/reach requests accepted
	Plans     atomic.Int64 // GET /v1/plan requests proxied
	ArcWrites atomic.Int64 // POST /v1/arc batches accepted for fan-out

	Errors      atomic.Int64 // requests failed at the router (after retries)
	Unavailable atomic.Int64 // requests refused because no replica was healthy

	Retries   atomic.Int64 // shard sub-request retries (transient outcomes)
	Hedges    atomic.Int64 // hedged second requests launched
	HedgeWins atomic.Int64 // hedges that beat the primary

	WriteFailures atomic.Int64 // write batches not acknowledged by the whole fleet

	Excluded      atomic.Int64 // replicas marked out by consecutive health failures
	Mismatched    atomic.Int64 // replicas refused enrollment on fingerprint mismatch
	LagExclusions atomic.Int64 // ring rebuilds that held a replica out for write lag
	HealthChecks  atomic.Int64 // health sweeps performed

	lat    *obsv.Histogram // end-to-end router latency, seconds
	fanout *obsv.Histogram // shards contacted per scattered query

	mu      sync.Mutex
	shards  map[string]*shardCounters // by replica URL
	tenants map[string]*atomic.Int64  // routed requests by tenant name
}

type shardCounters struct {
	requests atomic.Int64 // sub-requests sent (including retries and hedges)
	failures atomic.Int64 // sub-requests that did not return 200
}

// fanoutBuckets covers scatter widths from a single shard to a large fleet.
func fanoutBuckets() []float64 { return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} }

// NewMetrics returns a zeroed metric set with the clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		start:   time.Now(),
		lat:     obsv.NewHistogram(obsv.DurationBuckets()...),
		fanout:  obsv.NewHistogram(fanoutBuckets()...),
		shards:  make(map[string]*shardCounters),
		tenants: make(map[string]*atomic.Int64),
	}
}

// TenantRequest counts one routed read by tenant name; requests without a
// graph selector are the default tenant's.
func (m *Metrics) TenantRequest(tenant string) {
	if tenant == "" {
		tenant = "default"
	}
	m.mu.Lock()
	c := m.tenants[tenant]
	if c == nil {
		c = &atomic.Int64{}
		m.tenants[tenant] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// ObserveLatency records one completed router request.
func (m *Metrics) ObserveLatency(d time.Duration) { m.lat.Observe(d.Seconds()) }

// ObserveFanout records how many shards one query scattered to.
func (m *Metrics) ObserveFanout(shards int) { m.fanout.Observe(float64(shards)) }

// Shard returns the counter pair for one replica, creating it on first use.
func (m *Metrics) Shard(url string) *shardCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.shards[url]
	if c == nil {
		c = &shardCounters{}
		m.shards[url] = c
	}
	return c
}

// ShardRequest counts one sub-request to a replica and, when it failed,
// the failure.
func (m *Metrics) ShardRequest(url string, ok bool) {
	c := m.Shard(url)
	c.requests.Add(1)
	if !ok {
		c.failures.Add(1)
	}
}

// replicaHealth is the health snapshot Prometheus needs; the router passes
// it in because replica state belongs to the router's lock, not to Metrics.
type replicaHealth struct {
	url     string
	healthy bool
}

// Prometheus renders the metric set in text exposition format.
func (m *Metrics) Prometheus(health []replicaHealth) string {
	e := obsv.NewExposition()
	e.Gauge("tcr_uptime_seconds", "Seconds since the router started.",
		time.Since(m.start).Seconds())

	e.CounterFamily("tcr_requests_total", "Requests accepted for routing, by endpoint.")
	e.Sample("tcr_requests_total", []obsv.Label{{Name: "endpoint", Value: "arc"}},
		float64(m.ArcWrites.Load()))
	e.Sample("tcr_requests_total", []obsv.Label{{Name: "endpoint", Value: "plan"}},
		float64(m.Plans.Load()))
	e.Sample("tcr_requests_total", []obsv.Label{{Name: "endpoint", Value: "query"}},
		float64(m.Queries.Load()))
	e.Sample("tcr_requests_total", []obsv.Label{{Name: "endpoint", Value: "reach"}},
		float64(m.Reaches.Load()))

	e.Counter("tcr_errors_total", "Requests failed at the router after retries.",
		float64(m.Errors.Load()))
	e.Counter("tcr_unavailable_total", "Requests refused because no replica was healthy.",
		float64(m.Unavailable.Load()))
	e.Counter("tcr_retries_total", "Shard sub-request retries on transient failures.",
		float64(m.Retries.Load()))
	e.Counter("tcr_hedges_total", "Hedged second requests launched for slow shards.",
		float64(m.Hedges.Load()))
	e.Counter("tcr_hedge_wins_total", "Hedged requests that beat the primary.",
		float64(m.HedgeWins.Load()))
	e.Counter("tcr_replicas_excluded_total",
		"Replicas marked out after consecutive health-check failures.",
		float64(m.Excluded.Load()))
	e.Counter("tcr_replicas_mismatched_total",
		"Replicas refused enrollment because their dataset fingerprint differs from the fleet's.",
		float64(m.Mismatched.Load()))
	e.Counter("tcr_write_failures_total",
		"Mutation batches not acknowledged by every enrolled replica.",
		float64(m.WriteFailures.Load()))
	e.Counter("tcr_lag_exclusions_total",
		"Ring rebuilds that held a replica out of the read ring for trailing the fleet's write sequence.",
		float64(m.LagExclusions.Load()))
	e.Counter("tcr_health_checks_total", "Health sweeps performed across the fleet.",
		float64(m.HealthChecks.Load()))

	m.mu.Lock()
	urls := make([]string, 0, len(m.shards))
	for u := range m.shards {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	reqs := make([]int64, len(urls))
	fails := make([]int64, len(urls))
	for i, u := range urls {
		reqs[i] = m.shards[u].requests.Load()
		fails[i] = m.shards[u].failures.Load()
	}
	m.mu.Unlock()
	m.mu.Lock()
	tnames := make([]string, 0, len(m.tenants))
	for n := range m.tenants {
		tnames = append(tnames, n)
	}
	sort.Strings(tnames)
	tvals := make([]int64, len(tnames))
	for i, n := range tnames {
		tvals[i] = m.tenants[n].Load()
	}
	m.mu.Unlock()
	if len(tnames) > 0 {
		e.CounterFamily("tcr_tenant_requests_total", "Reads routed per tenant (query, reach and plan).")
		for i, n := range tnames {
			e.Sample("tcr_tenant_requests_total", []obsv.Label{{Name: "tenant", Value: n}}, float64(tvals[i]))
		}
	}

	e.CounterFamily("tcr_shard_requests_total", "Sub-requests sent to each replica, including retries and hedges.")
	for i, u := range urls {
		e.Sample("tcr_shard_requests_total", []obsv.Label{{Name: "replica", Value: u}}, float64(reqs[i]))
	}
	e.CounterFamily("tcr_shard_failures_total", "Sub-requests per replica that did not return 200.")
	for i, u := range urls {
		e.Sample("tcr_shard_failures_total", []obsv.Label{{Name: "replica", Value: u}}, float64(fails[i]))
	}

	e.GaugeFamily("tcr_replica_healthy", "1 when the replica is enrolled and healthy, 0 otherwise.")
	healthy := 0
	for _, h := range health {
		v := 0.0
		if h.healthy {
			v = 1
			healthy++
		}
		e.Sample("tcr_replica_healthy", []obsv.Label{{Name: "replica", Value: h.url}}, v)
	}
	e.GaugeFamily("tcr_healthy_replicas", "Number of replicas currently enrolled and healthy.")
	e.Sample("tcr_healthy_replicas", nil, float64(healthy))

	e.HistogramFamily("tcr_request_duration_seconds", "End-to-end router request latency.")
	e.Histogram("tcr_request_duration_seconds", nil, m.lat.Snapshot())
	e.HistogramFamily("tcr_scatter_fanout_shards", "Shards contacted per scattered query.")
	e.Histogram("tcr_scatter_fanout_shards", nil, m.fanout.Snapshot())
	return e.String()
}
