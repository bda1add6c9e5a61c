// Package router is the scatter-gather serving tier in front of a fleet
// of stateless tcserve replicas. A partial closure query's answer is one
// successor set per source, each independent of the others, so horizontal
// sharding is routing, not rework: every replica holds a full copy of the
// sealed database (and index) files, a consistent-hash ring assigns each
// source vertex an owning replica — keeping that replica's result cache
// warm for the sources it owns — and a multi-source query scatters one
// sub-query per owning replica, gathering the answers into a single
// response whose metric record is the per-shard records folded by
// api.Merge: additive counters sum, phase times take the maximum.
//
// Three defenses keep the tier serving under replica trouble:
//
//   - health: replicas are enrolled only while /healthz answers with the
//     fleet's dataset fingerprint; consecutive failures mark a replica
//     out, consecutive successes re-enroll it, and a mismatched
//     fingerprint (a replica serving the wrong graph) is refused outright.
//   - retries: transient sub-request outcomes (503, transport errors) are
//     retried with the tcload backoff policy (internal/httpretry),
//     rotating to the next healthy replica — any replica can answer any
//     sub-query, ownership is only an affinity.
//   - hedging: a sub-request that exceeds a latency threshold triggers a
//     second request to the next healthy replica; the first useful answer
//     wins and the loser is cancelled through its context.
//
// The router exposes its own Prometheus /metrics through internal/obsv.
// See docs/ROUTER.md.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/httpretry"
)

// Options configures a Router. Zero values select the defaults.
type Options struct {
	// Replicas are the tcserve base URLs fronted by this router.
	Replicas []string
	// HealthInterval is the period of the background /healthz sweep
	// started by Start (default 2s; <= 0 disables the loop — tests drive
	// CheckNow directly).
	HealthInterval time.Duration
	// HealthTimeout bounds one /healthz probe (default 2s).
	HealthTimeout time.Duration
	// FailThreshold is how many consecutive health-check failures mark a
	// healthy replica out (default 3).
	FailThreshold int
	// RecoverThreshold is how many consecutive successes re-enroll a
	// replica that was marked out (default 2).
	RecoverThreshold int
	// Retries and Backoff set the shared transient-retry policy for shard
	// sub-requests (defaults 2 and 25ms, tcload's defaults).
	Retries int
	Backoff time.Duration
	// HedgeAfter sends a hedged second sub-request to the next healthy
	// replica when the first has not answered within this threshold
	// (default 0: hedging disabled).
	HedgeAfter time.Duration
	// ShardTimeout bounds one scattered sub-request including its retries
	// (default 30s).
	ShardTimeout time.Duration
	// Vnodes is the number of consistent-hash points per replica
	// (default 64).
	Vnodes int
	// ExpectFingerprint pins the fleet's dataset fingerprint. Empty means
	// the first healthy replica's fingerprint becomes the fleet's.
	ExpectFingerprint string
	// MaxGenerationLag, when positive, excludes a healthy mutable replica
	// from the read ring while its applied mutation sequence trails the
	// fleet's most advanced replica by more than this many batches. The
	// replica keeps its enrollment — write fan-outs still reach it — so it
	// rejoins the ring as soon as it catches up. 0 disables lag exclusion.
	MaxGenerationLag int
	// Client is the HTTP client for all replica traffic (default: a
	// dedicated client; per-request contexts carry the deadlines).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.HealthTimeout == 0 {
		o.HealthTimeout = 2 * time.Second
	}
	if o.FailThreshold == 0 {
		o.FailThreshold = 3
	}
	if o.RecoverThreshold == 0 {
		o.RecoverThreshold = 2
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff == 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.ShardTimeout == 0 {
		o.ShardTimeout = 30 * time.Second
	}
	if o.Vnodes == 0 {
		o.Vnodes = 64
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Router fans queries out over a replica fleet and gathers the answers.
type Router struct {
	opts   Options
	client *http.Client
	retry  httpretry.Policy
	met    *Metrics
	mux    *http.ServeMux

	// writeMu serializes mutation fan-outs: batches must land on every
	// replica in the same order or their logs (and index states) diverge.
	writeMu sync.Mutex

	mu          sync.RWMutex
	replicas    []*replica
	ring        *ring                        // healthy replicas only; nil while none are enrolled
	expect      string                       // fleet dataset fingerprint ("" until first enrollment)
	nodes       int                          // fleet node count, from the enrolling healthz
	fleetGraphs map[string]api.GraphIdentity // per-tenant identities (multi-graph fleets)

	stop     chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup
}

// New builds a router over the given replica URLs. All replicas start
// unenrolled; call CheckNow (or Start) to take the fleet's health.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		opts:   opts,
		client: opts.Client,
		retry:  httpretry.Policy{Max: opts.Retries, Backoff: opts.Backoff},
		mux:    http.NewServeMux(),
		expect: opts.ExpectFingerprint,
		stop:   make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, url := range opts.Replicas {
		if seen[url] {
			return nil, fmt.Errorf("router: duplicate replica %s", url)
		}
		seen[url] = true
		rt.replicas = append(rt.replicas, &replica{url: url})
	}
	rt.met = newMetrics(rt)
	rt.mux.HandleFunc("POST /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/arc", rt.handleArc)
	rt.mux.HandleFunc("GET /v1/reach", rt.handleReach)
	rt.mux.HandleFunc("GET /v1/plan", rt.handlePlan)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Metrics exposes the live counters (for tests and embedding).
func (rt *Router) Metrics() *Metrics { return rt.met }

// snapshot returns the current ring (nil when no replica is healthy).
func (rt *Router) snapshot() *ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// shardGroup is the work for one owning replica: the sources it owns plus
// the retry/hedge rotation starting at it.
type shardGroup struct {
	sources  []int32
	rotation []*replica
}

// tenantSalt folds a tenant name into a ring-key perturbation, so the same
// source vertex of different tenants lands on different owners: each
// tenant's working set spreads independently over the fleet, and one
// tenant's hot sources do not pile onto the replicas owning another
// tenant's identical vertex ids. The default tenant's salt is zero, which
// keeps single-graph routing (and its warm caches) byte-identical.
func tenantSalt(graph string) int32 {
	if graph == "" {
		return 0
	}
	f := fnv.New32a()
	f.Write([]byte(graph))
	return int32(f.Sum32())
}

// partition groups a query's sources by owning replica, preserving the
// request's source order inside each group so replicas see canonical
// sub-queries. Ring keys are salted by the tenant so each tenant's
// ownership map is independent. An empty source list (full closure) is one
// group routed by the tenant's fixed key: the whole fleet holds the whole
// graph, so any owner works, and pinning the key keeps the full-closure
// cache warm on one replica per tenant.
func partition(rg *ring, sources []int32, salt int32) []shardGroup {
	if len(sources) == 0 {
		return []shardGroup{{sources: nil, rotation: rg.rotation(salt)}}
	}
	order := make([]*replica, 0, 4)
	groups := make(map[*replica]*shardGroup, 4)
	for _, s := range sources {
		rep := rg.owner(s ^ salt)
		g := groups[rep]
		if g == nil {
			g = &shardGroup{rotation: rg.rotation(s ^ salt)}
			groups[rep] = g
			order = append(order, rep)
		}
		g.sources = append(g.sources, s)
	}
	out := make([]shardGroup, 0, len(order))
	for _, rep := range order {
		out = append(out, *groups[rep])
	}
	return out
}

// shardOutcome is the final result of one scattered sub-request after
// retries and hedging.
type shardOutcome struct {
	status  int
	body    []byte
	err     error
	retries int
	hedges  int
}

// sendResult is one wire attempt's result.
type sendResult struct {
	status int
	body   []byte
	err    error
	rep    *replica
}

// send performs one HTTP exchange with one replica and charges the
// per-shard counters.
func (rt *Router) send(ctx context.Context, rep *replica, method, path string, body []byte) sendResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.url+path, rd)
	if err != nil {
		rep.count(false)
		return sendResult{err: err, rep: rep}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.count(false)
		return sendResult{err: err, rep: rep}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		rep.count(false)
		return sendResult{err: err, rep: rep}
	}
	rep.count(resp.StatusCode == http.StatusOK)
	return sendResult{status: resp.StatusCode, body: b, rep: rep}
}

// hedgedSend races one attempt against a hedge: the primary goes out
// immediately; if it has not answered within HedgeAfter, the same request
// is sent to alt, and the first useful (non-transient) answer wins while
// the loser's context is cancelled. With hedging disabled or no alternate
// replica available it is a plain send.
func (rt *Router) hedgedSend(ctx context.Context, primary, alt *replica, method, path string, body []byte) (sendResult, int) {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	ch := make(chan sendResult, 2)
	go func() { ch <- rt.send(pctx, primary, method, path, body) }()
	if rt.opts.HedgeAfter <= 0 || alt == nil {
		return <-ch, 0
	}
	timer := time.NewTimer(rt.opts.HedgeAfter)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r, 0
	case <-timer.C:
	}
	rt.met.Hedges.Add(1)
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	go func() { ch <- rt.send(actx, alt, method, path, body) }()
	first := <-ch
	if !httpretry.Retryable(first.status, first.err) {
		if first.rep == alt {
			rt.met.HedgeWins.Add(1)
		}
		return first, 1 // deferred cancels abort the loser in flight
	}
	// The first leg to answer failed transiently. Give the surviving leg
	// one more hedge window rather than waiting it out: HedgeAfter is the
	// patience threshold, and the retry layer can rotate to a different
	// replica faster than a stuck leg can answer.
	grace := time.NewTimer(rt.opts.HedgeAfter)
	defer grace.Stop()
	select {
	case second := <-ch:
		if !httpretry.Retryable(second.status, second.err) {
			if second.rep == alt {
				rt.met.HedgeWins.Add(1)
			}
			return second, 1
		}
		// Both failed transiently; report the primary's outcome and let
		// the retry layer rotate.
		if first.rep == primary {
			return first, 1
		}
		return second, 1
	case <-grace.C:
		return first, 1
	}
}

// doShard runs one scattered sub-request to completion: attempts rotate
// through the healthy replicas starting at the owner, transient outcomes
// retry with exponential backoff, and each attempt may hedge to the next
// replica in the rotation.
func (rt *Router) doShard(ctx context.Context, rot []*replica, method, path string, body []byte) shardOutcome {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ShardTimeout)
	defer cancel()
	var out shardOutcome
	_, retries, _ := rt.retry.Do(ctx, func(try int) (int, error) {
		primary := rot[try%len(rot)]
		var alt *replica
		if len(rot) > 1 {
			alt = rot[(try+1)%len(rot)]
		}
		r, hedges := rt.hedgedSend(ctx, primary, alt, method, path, body)
		out.status, out.body, out.err = r.status, r.body, r.err
		out.hedges += hedges
		return r.status, r.err
	})
	out.retries = retries
	rt.met.Retries.Add(int64(retries))
	return out
}

// failShard translates a failed shard outcome into the router's response:
// a replica's HTTP failure passes through verbatim (the bodies carry the
// server's own error contract — retry hints and all), a transport failure
// after retries is a 502.
func (rt *Router) failShard(w http.ResponseWriter, out shardOutcome) {
	rt.met.Errors.Add(1)
	if out.err != nil {
		api.WriteJSON(w, http.StatusBadGateway, api.Error{
			Message:   fmt.Sprintf("replica unreachable after %d retries: %v", out.retries, out.err),
			Transient: true,
		})
		return
	}
	relay(w, out)
}

// relay passes a replica's reply through verbatim.
func relay(w http.ResponseWriter, out shardOutcome) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(out.status)
	_, _ = w.Write(out.body)
}

// badRequest rejects a request the router itself cannot parse.
func (rt *Router) badRequest(w http.ResponseWriter, format string, args ...any) {
	rt.met.Errors.Add(1)
	api.WriteJSON(w, http.StatusBadRequest, api.Error{Message: fmt.Sprintf(format, args...)})
}

// noReplicas rejects a request when the ring is empty.
func (rt *Router) noReplicas(w http.ResponseWriter) {
	rt.met.Unavailable.Add(1)
	w.Header().Set("Retry-After", "1")
	api.WriteJSON(w, http.StatusServiceUnavailable, api.Error{Message: "no healthy replicas", Transient: true})
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.met.Queries.Add(1)
	var qr api.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
		rt.badRequest(w, "bad request body: %v", err)
		return
	}
	rg := rt.snapshot()
	if rg == nil {
		rt.noReplicas(w)
		return
	}
	if qr.Graph == "" {
		qr.Graph = r.URL.Query().Get("graph")
	}
	rt.met.TenantRequest(qr.Graph)
	// The replicas drop repeated sources; drop them before partitioning so
	// the echoed source list and the shard split describe the set they
	// answer for.
	qr.Sources = core.DedupSources(qr.Sources)
	groups := partition(rg, qr.Sources, tenantSalt(qr.Graph))
	rt.met.ObserveFanout(len(groups))

	outcomes := make([]shardOutcome, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		sub := qr
		sub.Sources = g.sources
		body, err := json.Marshal(sub)
		if err != nil {
			rt.met.Errors.Add(1)
			api.WriteJSON(w, http.StatusInternalServerError, api.Error{Message: err.Error()})
			return
		}
		wg.Add(1)
		go func(i int, rot []*replica, body []byte) {
			defer wg.Done()
			outcomes[i] = rt.doShard(r.Context(), rot, http.MethodPost, "/v1/query", body)
		}(i, g.rotation, body)
	}
	wg.Wait()

	resp := api.QueryResponse{
		Algorithm: qr.Algorithm,
		Sources:   qr.Sources,
		Cached:    true,
		Shards:    len(groups),
	}
	records := make([]api.Record, 0, len(groups))
	for _, out := range outcomes {
		resp.Retries += out.retries
		resp.Hedges += out.hedges
	}
	// A deterministic client error (4xx) wins over transient failures:
	// the request itself is wrong and retrying elsewhere cannot help.
	var failed *shardOutcome
	for i := range outcomes {
		out := &outcomes[i]
		if out.err == nil && out.status == http.StatusOK {
			continue
		}
		if failed == nil || (out.err == nil && out.status >= 400 && out.status < 500 &&
			!(failed.err == nil && failed.status >= 400 && failed.status < 500)) {
			failed = out
		}
	}
	if failed != nil {
		rt.failShard(w, *failed)
		return
	}
	var shards []api.QueryResponse
	for _, out := range outcomes {
		var sr api.QueryResponse
		if err := json.Unmarshal(out.body, &sr); err != nil {
			rt.met.Errors.Add(1)
			api.WriteJSON(w, http.StatusBadGateway, api.Error{Message: fmt.Sprintf("bad replica response: %v", err)})
			return
		}
		shards = append(shards, sr)
	}
	resp.SuccessorCounts = make(map[int32]int)
	for _, sr := range shards {
		resp.Graph = sr.Graph // every shard ran on the one tenant the request named
		records = append(records, sr.Metrics)
		resp.Cached = resp.Cached && sr.Cached
		resp.Deduplicated = resp.Deduplicated || sr.Deduplicated
		for node, n := range sr.SuccessorCounts {
			resp.SuccessorCounts[node] = n
		}
		if sr.Successors != nil {
			if resp.Successors == nil {
				resp.Successors = make(map[int32][]int32)
			}
			for node, succ := range sr.Successors {
				resp.Successors[node] = succ
			}
		}
	}
	resp.Metrics = api.Merge(records)
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	rt.met.ObserveLatency(time.Since(start))
	api.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleReach(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.met.Reaches.Add(1)
	src, err := strconv.ParseInt(r.URL.Query().Get("src"), 10, 32)
	if err != nil {
		rt.badRequest(w, "reach needs integer src and dst parameters")
		return
	}
	if rt.forward(w, r, int32(src)) {
		rt.met.ObserveLatency(time.Since(start))
	}
}

// handlePlan proxies the planner ranking to one healthy replica — every
// replica serves the same graphs, so any profile is the fleet's profile.
// The rotation is pinned per tenant: a tenant's plan requests keep landing
// on the replica whose adaptive observation store that tenant's queries
// feed most (its full-closure owner), so the served ranking reflects the
// densest evidence available.
func (rt *Router) handlePlan(w http.ResponseWriter, r *http.Request) {
	rt.met.Plans.Add(1)
	rt.forward(w, r, 0)
}

// forward proxies a GET verbatim to one replica: the ring rotation for key
// salted with the request's tenant, retried and hedged by doShard, the
// reply relayed as is. It reports whether the replica answered 200.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key int32) bool {
	rg := rt.snapshot()
	if rg == nil {
		rt.noReplicas(w)
		return false
	}
	tenant := r.URL.Query().Get("graph")
	rt.met.TenantRequest(tenant)
	out := rt.doShard(r.Context(), rg.rotation(key^tenantSalt(tenant)), http.MethodGet, r.URL.RequestURI(), nil)
	if out.err != nil || out.status != http.StatusOK {
		rt.failShard(w, out)
		return false
	}
	relay(w, out)
	return true
}

// handleHealthz reports the router's own health: the fleet fingerprint,
// how many replicas are enrolled, and each replica's state. The "nodes"
// field mirrors tcserve's healthz so load generators can point at a
// router and a replica interchangeably.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	statuses := make([]api.ReplicaStatus, 0, len(rt.replicas))
	healthy := 0
	for _, rep := range rt.replicas {
		if rep.state == stateHealthy {
			healthy++
		}
		st := api.ReplicaStatus{
			URL:                 rep.url,
			State:               rep.state.String(),
			Fingerprint:         rep.fingerprint,
			Nodes:               rep.nodes,
			Arcs:                rep.arcs,
			ConsecutiveFailures: rep.consecFails,
			LastError:           rep.lastErr,
		}
		if rep.hasIndex {
			st.IndexGeneration = rep.indexGen
		}
		if rep.hasDyn {
			st.Seq = rep.dynSeq
			st.Pending = rep.dynPending
			st.Lagging = rep.lagExcluded
		}
		if len(rep.graphs) > 0 {
			st.Graphs = make(map[string]string, len(rep.graphs))
			for name, g := range rep.graphs {
				st.Graphs[name] = g.Fingerprint
			}
		}
		statuses = append(statuses, st)
	}
	resp := api.RouterHealth{
		Fingerprint: rt.expect, Graphs: maps.Clone(rt.fleetGraphs), HealthyReplicas: healthy,
		Nodes: rt.nodes, Replicas: statuses, Status: "ok",
	}
	rt.mu.RUnlock()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].URL < statuses[j].URL })
	code := http.StatusOK
	if healthy == 0 {
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.met.WritePrometheus(w)
}
