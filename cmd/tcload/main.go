// Command tcload drives a running tcserve instance with a configurable
// open-loop query stream and reports throughput, latency percentiles and
// the server's own cache statistics. The mix interleaves boolean reach
// probes, with src and dst drawn uniformly, and partial-closure queries
// drawn from a fixed pool of 16 query shapes, so a warm cache serves most
// of them. -reach sets the fraction of /v1/reach probes.
//
// Against a mutable server (tcserve -mutable, or a tcrouter fronting a
// mutable fleet), -writemix interleaves POST /v1/arc mutation batches into
// the stream: each write batch carries -writeops random insert/delete ops
// drawn from the same node space. Writes share the retry policy and the
// collector, so 429 backlog rejections count as admission control, not
// errors.
//
// Against a multi-graph server (tcserve -graphs, or a tcrouter fronting
// one), -graph names the tenants to drive: requests are spread across the
// listed graphs, each graph's queries are generated from its own node
// space (read from the healthz graphs block), and the run ends with one
// summary line per graph so per-tenant fairness and cache behaviour are
// visible at a glance. Mutations are single-graph only server-side, so
// -graph and -writemix conflict.
//
// Examples (against tcserve -n 2000, or tcserve -graphs a=dir1,b=dir2):
//
//	tcload -addr http://localhost:8080 -duration 10s -qps 200 -reach 0.5
//	tcload -addr http://localhost:8080 -reach 1 -qps 500
//	tcload -addr http://localhost:8080 -writemix 0.1 -writeops 4 -qps 100
//	tcload -addr http://localhost:8080 -graph a,b -qps 200
//
// Rejections (HTTP 429, admission control working as intended) are counted
// separately from errors. The exit status is nonzero if any request failed
// with a transport error or an unexpected HTTP status.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/httpretry"
)

func main() {
	var (
		addr       = flag.String("addr", "http://localhost:8080", "tcserve base URL")
		targets    = flag.String("targets", "", "comma-separated base URLs driven round-robin (tcserve replicas or tcrouter instances); overrides -addr")
		duration   = flag.Duration("duration", 10*time.Second, "run length")
		qps        = flag.Float64("qps", 100, "target request rate")
		inflight   = flag.Int("inflight", 64, "max concurrent requests (arrivals beyond it are dropped)")
		reachFrac  = flag.Float64("reach", 0.5, "fraction of requests that are /v1/reach probes")
		algs       = flag.String("algs", "srch,bj,btc", "comma-separated algorithms for /v1/query requests")
		maxSources = flag.Int("maxsources", 4, "max sources per closure query")
		m          = flag.Int("m", 0, "buffer pages per query (0 = server default)")
		seed       = flag.Int64("seed", 1, "workload seed")
		retries    = flag.Int("retries", 2, "retry attempts for transient 503 responses and transport errors")
		backoff    = flag.Duration("backoff", 25*time.Millisecond, "initial retry backoff (doubles per attempt)")
		writeMix   = flag.Float64("writemix", 0, "fraction of requests that are POST /v1/arc mutation batches (requires a mutable server)")
		writeOps   = flag.Int("writeops", 4, "insert/delete ops per mutation batch")
		deletePct  = flag.Int("deletepct", 30, "percentage of mutation ops that are deletes")
		graphList  = flag.String("graph", "", "comma-separated graph names to drive on a multi-graph server (empty = the default graph)")
	)
	flag.Parse()
	retryPolicy = httpretry.Policy{Max: *retries, Backoff: *backoff}

	endpoints := parseTargets(*targets, *addr)
	client := &http.Client{Timeout: 60 * time.Second}
	rng := rand.New(rand.NewSource(*seed))
	tenants, err := buildTenants(client, endpoints, *graphList, tenantParams{
		algs: *algs, maxSources: *maxSources, m: *m, seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	if *writeMix > 0 && tenants[0].name != "" {
		fatal(fmt.Errorf("-writemix drives POST /v1/arc, which is single-graph only: drop -graph or -writemix"))
	}
	nodes := tenants[0].nodes
	fmt.Printf("tcload: %d target(s), %s; driving %.0f qps for %s (reach mix %.0f%%)\n",
		len(endpoints), describeTenants(tenants), *qps, *duration, 100**reachFrac)
	next := newPicker(endpoints)

	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, *inflight)
		dropped atomic.Int64
		stats   = newCollector()
	)
	interval := time.Duration(float64(time.Second) / *qps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	deadline := time.Now().Add(*duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		var op func()
		base := next()
		tr := tenants[rng.Intn(len(tenants))]
		record := func(o outcome) {
			stats.observe(o)
			if tr.stats != nil {
				tr.stats.observe(o)
			}
		}
		if *writeMix > 0 && rng.Float64() < *writeMix {
			body := makeArcBatch(rng, nodes, *writeOps, *deletePct)
			url := base + "/v1/arc"
			op = func() { record(doPost(client, url, body)) }
		} else if rng.Float64() < *reachFrac {
			src, dst := rng.Intn(tr.nodes)+1, rng.Intn(tr.nodes)+1
			url := fmt.Sprintf("%s/v1/reach?src=%d&dst=%d%s", base, src, dst, tr.reachParam)
			op = func() { record(doGet(client, url)) }
		} else {
			body := tr.shapes[rng.Intn(len(tr.shapes))]
			url := base + "/v1/query"
			op = func() { record(doPost(client, url, body)) }
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				op()
			}()
		default:
			dropped.Add(1)
		}
	}
	wg.Wait()

	stats.report(*duration, dropped.Load())
	for _, tr := range tenants {
		if tr.stats != nil {
			tr.stats.summary(tr.name)
		}
	}
	for _, base := range endpoints {
		printServerMetrics(client, base)
		printServerIndex(client, base)
	}
	if stats.errors.Load() > 0 {
		os.Exit(1)
	}
}

// parseTargets resolves the endpoint list: -targets (comma-separated) when
// given, otherwise the single -addr.
func parseTargets(targets, addr string) []string {
	if targets == "" {
		return []string{addr}
	}
	var out []string
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, strings.TrimRight(t, "/"))
		}
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-targets %q contains no endpoints", targets))
	}
	return out
}

// checkTargets verifies every endpoint is reachable and that all of them
// serve a graph of the same size — driving a mixed fleet would make the
// generated sources invalid on the smaller servers.
func checkTargets(c *http.Client, endpoints []string) (int, error) {
	nodes := 0
	for i, base := range endpoints {
		h, err := fetchHealth(c, base)
		if err == nil && h.Nodes < 1 {
			err = fmt.Errorf("server reports %d nodes", h.Nodes)
		}
		if err != nil {
			return 0, fmt.Errorf("cannot reach server at %s: %w", base, err)
		}
		n := h.Nodes
		if i == 0 {
			nodes = n
		} else if n != nodes {
			return 0, fmt.Errorf("target %s has %d nodes but %s has %d: refusing mixed fleet",
				base, n, endpoints[0], nodes)
		}
	}
	return nodes, nil
}

// tenantRun is one graph's slice of the workload: its node space, its
// pre-built query shapes, and (for named graphs) its own collector for the
// end-of-run per-tenant summary. A single-graph run is one tenantRun with
// an empty name and no collector — the global collector already tells the
// whole story.
type tenantRun struct {
	name       string
	nodes      int
	reachParam string // "&graph=<name>" or ""
	shapes     [][]byte
	stats      *collector
}

// tenantParams carries the workload knobs buildTenants needs per graph.
type tenantParams struct {
	algs          string
	maxSources, m int
	seed          int64
}

// buildTenants resolves the -graph list into one tenantRun per graph,
// validating every target serves each named graph at the same size. An
// empty list produces the classic single-tenant run against the default
// graph.
func buildTenants(c *http.Client, endpoints []string, graphList string, p tenantParams) ([]*tenantRun, error) {
	var names []string
	for _, n := range strings.Split(graphList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		nodes, err := checkTargets(c, endpoints)
		if err != nil {
			return nil, err
		}
		return []*tenantRun{{
			nodes:  nodes,
			shapes: buildShapes(p.algs, "", nodes, p.maxSources, p.m, p.seed),
		}}, nil
	}

	sizes, err := checkGraphTargets(c, endpoints, names)
	if err != nil {
		return nil, err
	}
	tenants := make([]*tenantRun, 0, len(names))
	for i, name := range names {
		nodes := sizes[name]
		tenants = append(tenants, &tenantRun{
			name:       name,
			nodes:      nodes,
			reachParam: "&graph=" + name,
			shapes:     buildShapes(p.algs, name, nodes, p.maxSources, p.m, p.seed+int64(i)),
			stats:      newCollector(),
		})
	}
	return tenants, nil
}

// checkGraphTargets verifies every endpoint serves every named graph and
// that each graph has the same node count fleet-wide, returning the sizes.
func checkGraphTargets(c *http.Client, endpoints, names []string) (map[string]int, error) {
	sizes := make(map[string]int)
	for i, base := range endpoints {
		h, err := fetchHealth(c, base)
		if err == nil && len(h.Graphs) == 0 {
			err = fmt.Errorf("server reports no named graphs (-graph needs tcserve -graphs or a multi-graph fleet)")
		}
		if err != nil {
			return nil, fmt.Errorf("cannot reach server at %s: %w", base, err)
		}
		for _, name := range names {
			g, ok := h.Graphs[name]
			if !ok {
				return nil, fmt.Errorf("server %s does not serve graph %q (it serves %s)",
					base, name, graphNames(h.Graphs))
			}
			n := g.Nodes
			if i == 0 {
				sizes[name] = n
			} else if n != sizes[name] {
				return nil, fmt.Errorf("graph %q has %d nodes on %s but %d on %s: refusing mixed fleet",
					name, n, base, sizes[name], endpoints[0])
			}
		}
	}
	return sizes, nil
}

func graphNames(graphs map[string]api.GraphHealth) string {
	names := make([]string, 0, len(graphs))
	for n := range graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// describeTenants renders the startup banner fragment for the graph set.
func describeTenants(tenants []*tenantRun) string {
	if len(tenants) == 1 && tenants[0].name == "" {
		return fmt.Sprintf("%d nodes", tenants[0].nodes)
	}
	parts := make([]string, len(tenants))
	for i, tr := range tenants {
		parts[i] = fmt.Sprintf("%s (%d nodes)", tr.name, tr.nodes)
	}
	return "graphs " + strings.Join(parts, ", ")
}

// newPicker returns a round-robin endpoint selector (trivial for one).
func newPicker(endpoints []string) func() string {
	if len(endpoints) == 1 {
		base := endpoints[0]
		return func() string { return base }
	}
	var i atomic.Int64
	return func() string {
		return endpoints[int(i.Add(1)-1)%len(endpoints)]
	}
}

// shapePool is how many distinct query shapes circulate: small enough that
// a warm result cache answers most queries.
const shapePool = 16

// buildShapes pre-builds the shapePool /v1/query bodies for one graph; a
// non-empty graph name is carried in every body so a multi-graph server
// routes the query to the right tenant.
func buildShapes(algs, graph string, nodes, maxSources, m int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed + 1))
	var algList []string
	for _, a := range bytes.Split([]byte(algs), []byte(",")) {
		if s := string(bytes.TrimSpace(a)); s != "" {
			algList = append(algList, s)
		}
	}
	if len(algList) == 0 {
		algList = []string{"srch"}
	}
	shapes := make([][]byte, 0, shapePool)
	for i := 0; i < shapePool; i++ {
		ns := rng.Intn(maxSources) + 1
		sources := make([]int32, ns)
		for j := range sources {
			sources[j] = int32(rng.Intn(nodes) + 1)
		}
		b, err := json.Marshal(api.QueryRequest{
			Algorithm: algList[i%len(algList)], Sources: sources, Graph: graph, BufferPages: max(m, 0),
		})
		if err != nil {
			fatal(err)
		}
		shapes = append(shapes, b)
	}
	return shapes
}

// makeArcBatch builds one POST /v1/arc body of random insert/delete ops
// over the server's node space. Deletes pick arbitrary endpoints — a miss
// is a no-op server-side, which keeps the stream valid without tracking
// the live arc set client-side.
func makeArcBatch(rng *rand.Rand, nodes, ops, deletePct int) []byte {
	if ops < 1 {
		ops = 1
	}
	batch := dynamic.Batch{Ops: make([]dynamic.Op, ops)}
	for i := range batch.Ops {
		op := dynamic.OpInsert
		if rng.Intn(100) < deletePct {
			op = dynamic.OpDelete
		}
		batch.Ops[i] = dynamic.Op{Op: op, From: int32(rng.Intn(nodes) + 1), To: int32(rng.Intn(nodes) + 1)}
	}
	b, err := json.Marshal(batch)
	if err != nil {
		fatal(err)
	}
	return b
}

// outcome classifies one request.
type outcome struct {
	latency time.Duration
	status  int
	retries int // retry attempts consumed before this outcome
	err     error
}

// retryPolicy retries transient failures (503 + transport errors, per the
// server's error contract) with exponential backoff; it is set from flags
// before any traffic is generated. See internal/httpretry.
var retryPolicy httpretry.Policy

func doGet(c *http.Client, url string) outcome {
	var o outcome
	_, retries, _ := retryPolicy.Do(context.Background(), func(int) (int, error) {
		start := time.Now()
		resp, err := c.Get(url)
		o = finish(start, resp, err)
		return o.status, o.err
	})
	o.retries = retries
	return o
}

func doPost(c *http.Client, url string, body []byte) outcome {
	var o outcome
	_, retries, _ := retryPolicy.Do(context.Background(), func(int) (int, error) {
		start := time.Now()
		resp, err := c.Post(url, "application/json", bytes.NewReader(body))
		o = finish(start, resp, err)
		return o.status, o.err
	})
	o.retries = retries
	return o
}

func finish(start time.Time, resp *http.Response, err error) outcome {
	o := outcome{err: err}
	if resp != nil {
		o.status = resp.StatusCode
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	o.latency = time.Since(start)
	return o
}

type collector struct {
	mu        sync.Mutex
	latencies []time.Duration
	ok        atomic.Int64
	rejected  atomic.Int64 // 429: admission control
	timeouts  atomic.Int64 // 504: deadline expiry
	faults    atomic.Int64 // 503 after retries exhausted: storage faults
	retried   atomic.Int64 // retry attempts consumed (successful or not)
	errors    atomic.Int64 // transport errors + unexpected statuses
}

func newCollector() *collector { return &collector{} }

func (c *collector) observe(o outcome) {
	c.retried.Add(int64(o.retries))
	switch {
	case o.err != nil:
		c.errors.Add(1)
		return
	case o.status == http.StatusOK:
		c.ok.Add(1)
	case o.status == http.StatusTooManyRequests:
		c.rejected.Add(1)
	case o.status == http.StatusGatewayTimeout:
		c.timeouts.Add(1)
	case o.status == http.StatusServiceUnavailable:
		c.faults.Add(1)
		return
	default:
		c.errors.Add(1)
		return
	}
	c.mu.Lock()
	c.latencies = append(c.latencies, o.latency)
	c.mu.Unlock()
}

func (c *collector) report(d time.Duration, dropped int64) {
	c.mu.Lock()
	lats := append([]time.Duration(nil), c.latencies...)
	c.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	total := c.ok.Load() + c.rejected.Load() + c.timeouts.Load() + c.faults.Load() + c.errors.Load()
	fmt.Printf("\nrequests      %d (%.1f/s achieved)\n", total, float64(total)/d.Seconds())
	fmt.Printf("ok            %d\n", c.ok.Load())
	fmt.Printf("rejected 429  %d\n", c.rejected.Load())
	fmt.Printf("timeout 504   %d\n", c.timeouts.Load())
	fmt.Printf("faulted 503   %d (after retries)\n", c.faults.Load())
	fmt.Printf("retried       %d attempts\n", c.retried.Load())
	fmt.Printf("errors        %d\n", c.errors.Load())
	fmt.Printf("dropped       %d (local inflight cap)\n", dropped)
	if len(lats) > 0 {
		q := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
		fmt.Printf("latency       p50 %s  p90 %s  p99 %s  max %s\n",
			q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
			q(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
}

// fetchHealth reads a target's /healthz. A tcrouter's reply decodes too:
// it carries the same nodes and per-graph node counts.
func fetchHealth(c *http.Client, addr string) (api.Health, error) {
	var h api.Health
	resp, err := c.Get(addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// summary prints the end-of-run line for one named graph's slice of the
// load, so a multi-tenant run shows how the mix split per tenant.
func (c *collector) summary(name string) {
	c.mu.Lock()
	lats := append([]time.Duration(nil), c.latencies...)
	c.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	line := fmt.Sprintf("graph %-10s ok %d, rejected %d, errors %d",
		name, c.ok.Load(), c.rejected.Load(), c.errors.Load())
	if len(lats) > 0 {
		q := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
		line += fmt.Sprintf(", p50 %s, p99 %s",
			q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond))
	}
	fmt.Println(line)
}

func printServerMetrics(c *http.Client, addr string) {
	resp, err := c.Get(addr + "/metrics?format=json")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m api.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return
	}
	fmt.Printf("server        qps %.1f, cache %d hits / %d misses (%.0f%% hit rate), dedup %d, pages served %d\n",
		m.QPS, m.CacheHits, m.CacheMisses, 100*m.CacheHitRate, m.Deduplicated, m.PagesServed)
}

// printServerIndex reports which reachability index served the run —
// builder name, chain count and generation from /healthz — so fleet
// experiments can confirm every replica ran the intended decomposition.
// Servers without a loaded index (or routers that do not expose one) are
// silently skipped.
func printServerIndex(c *http.Client, addr string) {
	h, err := fetchHealth(c, addr)
	if err != nil || h.Index == nil {
		return
	}
	fmt.Printf("index         %s decomposition, k=%d chains, generation %d, stale %t\n",
		h.Index.Builder, h.Index.Chains, h.Index.Generation, h.Index.Stale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcload:", err)
	os.Exit(1)
}
