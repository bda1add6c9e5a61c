package router

import (
	"io"
	"sync/atomic"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/obsv"
)

// Metrics is the router's live counter set, served by GET /metrics in
// Prometheus text exposition format. Every family is declared once, in
// newMetrics, against an obsv.Registry; the fields are the handles the
// request paths update. Per-shard traffic is labeled by replica URL so a
// scraper can see the consistent-hash spread; hedges and retries get their
// own counters because they are the router's two tail-latency defenses and
// their rates are the first thing to look at when p99 moves.
type Metrics struct {
	reg *obsv.Registry

	Queries   *atomic.Int64 // POST /v1/query requests accepted
	Reaches   *atomic.Int64 // GET /v1/reach requests accepted
	Plans     *atomic.Int64 // GET /v1/plan requests proxied
	ArcWrites *atomic.Int64 // POST /v1/arc batches accepted for fan-out

	Errors      *atomic.Int64 // requests failed at the router (after retries)
	Unavailable *atomic.Int64 // requests refused because no replica was healthy

	Retries   *atomic.Int64 // shard sub-request retries (transient outcomes)
	Hedges    *atomic.Int64 // hedged second requests launched
	HedgeWins *atomic.Int64 // hedges that beat the primary

	WriteFailures *atomic.Int64 // write batches not acknowledged by the whole fleet

	Excluded      *atomic.Int64 // replicas marked out by consecutive health failures
	Mismatched    *atomic.Int64 // replicas refused enrollment on fingerprint mismatch
	LagExclusions *atomic.Int64 // ring rebuilds that held a replica out for write lag
	HealthChecks  *atomic.Int64 // health sweeps performed

	lat     *obsv.Histogram // end-to-end router latency, seconds
	fanout  *obsv.Histogram // shards contacted per scattered query
	tenants *obsv.Vec       // routed reads by tenant name; series appear on first use
}

// fanoutBuckets covers scatter widths from a single shard to a large fleet.
func fanoutBuckets() []float64 { return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} }

// newMetrics declares every metric family the router exposes, in /metrics
// order, resolving the handles the request paths update — the global ones
// into Metrics, each replica's sub-request counters into the replica.
// Replica health belongs to the router's lock and is read through
// callbacks at scrape time.
func newMetrics(rt *Router) *Metrics {
	m := &Metrics{reg: obsv.NewRegistry()}
	r := m.reg
	start := time.Now()
	r.Gauge("tcr_uptime_seconds", "Seconds since the router started.").
		Func(func() float64 { return time.Since(start).Seconds() })

	reqs := r.Counter("tcr_requests_total", "Requests accepted for routing, by endpoint.", "endpoint")
	m.Queries, m.Reaches, m.Plans, m.ArcWrites = reqs.Int("query"), reqs.Int("reach"), reqs.Int("plan"), reqs.Int("arc")
	m.Errors = r.Counter("tcr_errors_total", "Requests failed at the router after retries.").Int()
	m.Unavailable = r.Counter("tcr_unavailable_total", "Requests refused because no replica was healthy.").Int()
	m.Retries = r.Counter("tcr_retries_total", "Shard sub-request retries on transient failures.").Int()
	m.Hedges = r.Counter("tcr_hedges_total", "Hedged second requests launched for slow shards.").Int()
	m.HedgeWins = r.Counter("tcr_hedge_wins_total", "Hedged requests that beat the primary.").Int()
	m.Excluded = r.Counter("tcr_replicas_excluded_total",
		"Replicas marked out after consecutive health-check failures.").Int()
	m.Mismatched = r.Counter("tcr_replicas_mismatched_total",
		"Replicas refused enrollment because their dataset fingerprint differs from the fleet's.").Int()
	m.WriteFailures = r.Counter("tcr_write_failures_total",
		"Mutation batches not acknowledged by every enrolled replica.").Int()
	m.LagExclusions = r.Counter("tcr_lag_exclusions_total",
		"Ring rebuilds that held a replica out of the read ring for trailing the fleet's write sequence.").Int()
	m.HealthChecks = r.Counter("tcr_health_checks_total", "Health sweeps performed across the fleet.").Int()
	m.tenants = r.Counter("tcr_tenant_requests_total", "Reads routed per tenant (query, reach and plan).", "tenant")

	sent := r.Counter("tcr_shard_requests_total", "Sub-requests sent to each replica, including retries and hedges.", "replica")
	failed := r.Counter("tcr_shard_failures_total", "Sub-requests per replica that did not return 200.", "replica")
	healthy := r.Gauge("tcr_replica_healthy", "1 when the replica is enrolled and healthy, 0 otherwise.", "replica")
	enrolled := func(reps ...*replica) float64 {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		n := 0
		for _, rep := range reps {
			if rep.state == stateHealthy {
				n++
			}
		}
		return float64(n)
	}
	for _, rep := range rt.replicas {
		rep.requests, rep.failures = sent.Int(rep.url), failed.Int(rep.url)
		healthy.Func(func() float64 { return enrolled(rep) }, rep.url)
	}
	r.Gauge("tcr_healthy_replicas", "Number of replicas currently enrolled and healthy.").
		Func(func() float64 { return enrolled(rt.replicas...) })

	m.lat = r.Histogram("tcr_request_duration_seconds", "End-to-end router request latency.", obsv.DurationBuckets()).Hist()
	m.fanout = r.Histogram("tcr_scatter_fanout_shards", "Shards contacted per scattered query.", fanoutBuckets()).Hist()
	return m
}

// TenantRequest counts one routed read by tenant name; requests without a
// graph selector are the default tenant's.
func (m *Metrics) TenantRequest(tenant string) {
	if tenant == "" {
		tenant = api.DefaultGraph
	}
	m.tenants.Int(tenant).Add(1)
}

// ObserveLatency records one completed router request.
func (m *Metrics) ObserveLatency(d time.Duration) { m.lat.Observe(d.Seconds()) }

// ObserveFanout records how many shards one query scattered to.
func (m *Metrics) ObserveFanout(shards int) { m.fanout.Observe(float64(shards)) }

// WritePrometheus renders the metric set in text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// Families lists the declared metric families in /metrics order.
func (m *Metrics) Families() []string { return m.reg.Names() }
