package api_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/faultdisk"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/router"
	"tcstudy/internal/server"
)

// The wire contract, pinned. Each test drives one deployment shape — a
// single tcserve, a two-tenant tcserve, a mutable tcserve, a tcrouter over
// three replicas — through a fixed request script over a fixed seeded
// graph and compares the whole transcript (status line and body of every
// reply, /metrics in both formats included) byte for byte against
// testdata/<name>.golden. Only wall-clock values are masked. Run with
// -update to rewrite the fixtures after an intended contract change.

var update = flag.Bool("update", false, "rewrite the golden transcripts")

var (
	// Wall-clock JSON fields (the trace entries' time, start and
	// duration_ms among them), zeroed in place so key order stays pinned.
	jsonTimings = regexp.MustCompile(`"(elapsed_ms|restructure_ms|compute_ms|uptime_seconds|qps|p50|p90|p99|max|time|start|duration_ms)":[^,}\]]+`)
	// Exposition samples whose value depends on the clock: uptime, every
	// *_seconds histogram's finite buckets and sum, and the planner's
	// hit scoring (it ranks by observed latency).
	promTimings = regexp.MustCompile(`(?m)^((?:tcr?_uptime_seconds|tc_planner_hits_total\{[^}]*\}|tc_planner_hit_rate\{[^}]*\}|\w+_seconds_sum(?:\{[^}]*\})?|\w+_seconds_bucket\{[^}]*le="[0-9.e+-]+"\})) \S+$`)
)

func normalize(body []byte) []byte {
	body = jsonTimings.ReplaceAll(body, []byte(`"$1":0`))
	return promTimings.ReplaceAll(body, []byte(`$1 MASKED`))
}

// transcript accumulates one deployment's request script.
type transcript struct {
	t    *testing.T
	base string
	buf  bytes.Buffer
}

func (tr *transcript) do(method, path, body string) {
	tr.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, tr.base+path, rd)
	if err != nil {
		tr.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tr.t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		tr.t.Fatal(err)
	}
	fmt.Fprintf(&tr.buf, "== %s %s %s\n%d", method, path, body, resp.StatusCode)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		fmt.Fprintf(&tr.buf, " Retry-After=%s", ra)
	}
	fmt.Fprintf(&tr.buf, "\n%s", normalize(got))
	if !bytes.HasSuffix(got, []byte("\n")) {
		tr.buf.WriteByte('\n')
	}
}

func (tr *transcript) get(path string)        { tr.t.Helper(); tr.do(http.MethodGet, path, "") }
func (tr *transcript) post(path, body string) { tr.t.Helper(); tr.do(http.MethodPost, path, body) }

// check compares the transcript with its fixture (or rewrites it).
func (tr *transcript) check(name string) {
	tr.t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			tr.t.Fatal(err)
		}
		if err := os.WriteFile(path, tr.buf.Bytes(), 0o644); err != nil {
			tr.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		tr.t.Fatalf("%v (run go test ./internal/api -update to create it)", err)
	}
	if bytes.Equal(want, tr.buf.Bytes()) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(tr.buf.String(), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			tr.t.Fatalf("%s line %d differs\nwant: %s\n got: %s", path, i+1, w, g)
		}
	}
}

func genArcs(t *testing.T, p graphgen.Params) []graph.Arc {
	t.Helper()
	arcs, err := graphgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return arcs
}

// The fixed graphs: the 300-node DAG every single-graph deployment serves,
// and the two tenants of the multi-graph ones.
var (
	mainGraph = graphgen.Params{Nodes: 300, OutDegree: 4, Locality: 40, Seed: 7}
	wideGraph = graphgen.Params{Nodes: 300, OutDegree: 2, Locality: 300, Seed: 11}
	deepGraph = graphgen.Params{Nodes: 200, OutDegree: 6, Locality: 20, Seed: 12}
)

func serve(t *testing.T, h http.Handler, closers ...func()) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		for _, c := range closers {
			c()
		}
	})
	return ts.URL
}

func newSingle(t *testing.T) string {
	t.Helper()
	db := core.NewDatabase(mainGraph.Nodes, genArcs(t, mainGraph))
	// Engine read #0 fails once: the first query is the transient 503.
	sched, err := faultdisk.ParseSchedule("read@0")
	if err != nil {
		t.Fatal(err)
	}
	db.SwapStore(faultdisk.Wrap(db.Store(), faultdisk.Options{Schedule: sched}))
	s := server.New(db, server.Options{})
	return serve(t, s, s.Close)
}

func newTwoTenant(t *testing.T) string {
	t.Helper()
	deepArcs := genArcs(t, deepGraph)
	idx, err := index.Build(graph.New(deepGraph.Nodes, deepArcs))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewMulti([]server.NamedGraph{
		{Name: "wide", DB: core.NewDatabase(wideGraph.Nodes, genArcs(t, wideGraph))},
		{Name: "deep", DB: core.NewDatabase(deepGraph.Nodes, deepArcs), Index: idx},
	}, server.Options{TraceBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, s, s.Close)
}

func newMutable(t *testing.T, opts dynamic.Options) string {
	t.Helper()
	arcs := genArcs(t, mainGraph)
	db := core.NewDatabase(mainGraph.Nodes, arcs)
	idx, err := index.Build(graph.New(mainGraph.Nodes, arcs))
	if err != nil {
		t.Fatal(err)
	}
	if opts.BaseFingerprint, err = db.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	opts.Manual = true // nothing swaps generations behind the script's back
	dyn, err := dynamic.New(mainGraph.Nodes, arcs, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(db, server.Options{Dynamic: dyn, TraceBuffer: 16})
	return serve(t, s, s.Close, dyn.Close)
}

// newRouter fronts the given replica URLs under the stable names
// http://replica-a, -b, ...: ring ownership hashes the replica URL, so
// httptest's random ports would reshuffle the scatter on every run.
func newRouter(t *testing.T, opts router.Options, replicas ...string) string {
	t.Helper()
	hosts := make(map[string]string)
	for i, u := range replicas {
		name := fmt.Sprintf("replica-%c", 'a'+i)
		hosts[name+":80"] = strings.TrimPrefix(u, "http://")
		opts.Replicas = append(opts.Replicas, "http://"+name)
	}
	opts.Client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return (&net.Dialer{}).DialContext(ctx, network, hosts[addr])
		},
	}}
	opts.HealthInterval = -1 // one explicit sweep below
	rt, err := router.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	return serve(t, rt, rt.Close)
}

func TestGoldenSingle(t *testing.T) {
	tr := &transcript{t: t, base: newSingle(t)}
	tr.post("/v1/query", `{"algorithm":"srch","sources":[3,41,97]}`) // scheduled storage fault
	tr.get("/healthz")
	tr.get("/v1/plan?sources=3&m=10")
	tr.post("/v1/query", `{"algorithm":"srch","sources":[3,41,97]}`)
	tr.post("/v1/query", `{"algorithm":"srch","sources":[97,3,41]}`) // same set: cache hit
	tr.post("/v1/query", `{"algorithm":"bj","sources":[5,150],"buffer_pages":20,"include_successors":true}`)
	tr.post("/v1/query", `{"algorithm":"btc","sources":[12],"page_policy":"clock","list_policy":"largest"}`)
	// "parallelism" is no field of the body: the decoder ignores it.
	tr.post("/v1/query", `{"algorithm":"hyb","sources":[8,9,10,11],"ilimit":0.25,"parallelism":2}`)
	tr.post("/v1/query", `{"algorithm":"jkb2"}`) // full closure
	tr.get("/v1/reach?src=3&dst=250")
	tr.get("/v1/reach?src=3&dst=4")
	tr.get("/v1/plan?sources=0&m=50&mode=static")
	tr.get("/debug/traces")
	// Client errors, one per validation site.
	tr.post("/v1/query", `{"algorithm":"srch","sources":[301]}`)
	tr.post("/v1/query", `{"algorithm":"nope","sources":[1]}`)
	tr.post("/v1/query", `{"algorithm":"btc","sources":[1],"buffer_pages":3}`)
	tr.post("/v1/query", `{"algorithm":"btc","sources":[1],"page_policy":"nope"}`)
	tr.post("/v1/query", `{"algorithm":"btc","sources":[1],"list_policy":"nope"}`)
	tr.post("/v1/query", `{"algorithm":`)
	tr.get("/v1/reach?src=x&dst=1")
	tr.get("/v1/reach?src=1&dst=999")
	tr.get("/v1/reach?src=1&dst=2&graph=nope")
	tr.get("/metrics?format=json")
	tr.get("/metrics")
	tr.check("single")
}

// A replica that cannot fingerprint its dataset reports itself degraded.
func TestGoldenDegraded(t *testing.T) {
	tr := &transcript{t: t, base: newSingle(t)}
	tr.get("/healthz") // takes the scheduled fault
	tr.check("degraded")
}

func TestGoldenTwoTenant(t *testing.T) {
	tr := &transcript{t: t, base: newTwoTenant(t)}
	tr.get("/healthz")
	tr.get("/v1/plan?graph=deep&sources=2")
	tr.post("/v1/query", `{"algorithm":"srch","sources":[3,41]}`)
	tr.post("/v1/query", `{"algorithm":"srch","graph":"deep","sources":[3,41]}`)
	tr.post("/v1/query?graph=deep", `{"algorithm":"srch","sources":[3,41]}`)
	tr.post("/v1/query", `{"algorithm":"btc","graph":"deep","sources":[7]}`)
	tr.get("/v1/reach?src=3&dst=150&graph=deep") // index hit
	tr.get("/v1/reach?src=3&dst=150")            // default tenant: engine
	tr.get("/v1/reach?src=41&dst=150&timeout_ms=5000")
	tr.get("/v1/plan?graph=deep&sources=2&mode=static")
	tr.post("/v1/query", `{"algorithm":"srch","graph":"nope","sources":[1]}`)
	tr.post("/v1/query", `{"algorithm":"srch","graph":"deep","sources":[201]}`)
	tr.get("/metrics?format=json")
	tr.get("/metrics")
	tr.get("/debug/traces") // index-probe entry beside the engine entries
	tr.check("two_tenant")
}

func TestGoldenMutable(t *testing.T) {
	tr := &transcript{t: t, base: newMutable(t, dynamic.Options{MaxPending: 2})}
	tr.get("/healthz")
	tr.get("/v1/reach?src=1&dst=300")
	tr.post("/v1/arc", `{"ops":[{"op":"insert","from":1,"to":300}]}`)
	tr.get("/v1/reach?src=1&dst=300")
	tr.get("/v1/reach?src=1&dst=300&seq=99")                                                              // not applied yet: transient 503
	tr.post("/v1/arc", `{"ops":[{"op":"delete","from":1,"to":300},{"op":"insert","from":296,"to":291}]}`) // closes a cycle: SCC merge
	tr.get("/v1/reach?src=296&dst=300")
	tr.post("/v1/arc", `{"ops":[{"op":"delete","from":298,"to":299}]}`) // shrinks the closure: rebuild pending
	tr.get("/v1/reach?src=298&dst=299")                                 // overlay answer
	tr.get("/healthz")
	tr.post("/v1/arc", `{"ops":[{"op":"insert","from":2,"to":299}]}`)
	tr.post("/v1/arc", `{"ops":[{"op":"insert","from":2,"to":298}]}`) // backlog: 429
	tr.post("/v1/arc", `{"ops":[{"op":"upsert","from":1,"to":2}]}`)
	tr.post("/v1/arc", `{"ops":[]}`)
	tr.get("/v1/reach?src=0&dst=1")
	tr.post("/v1/query", `{"algorithm":"srch","sources":[1]}`) // engine serves the frozen base
	tr.get("/metrics?format=json")
	tr.get("/metrics")
	tr.get("/debug/traces") // dynamic-probe, overlay, arc and the 503 seq=99 entries; Manual, so no rebuild entry
	tr.check("mutable")
}

func TestGoldenRouter(t *testing.T) {
	reps := []string{newMutable(t, dynamic.Options{}), newMutable(t, dynamic.Options{}), newMutable(t, dynamic.Options{})}
	tr := &transcript{t: t, base: newRouter(t, router.Options{}, reps...)}
	tr.get("/healthz")
	tr.post("/v1/query", `{"algorithm":"srch","sources":[3,41,97,150,222,288],"include_successors":true}`)
	tr.post("/v1/query", `{"algorithm":"srch","sources":[3,41,97,150,222,288]}`) // every shard cached
	tr.post("/v1/query", `{"algorithm":"btc","sources":[5,6,7,8,9,10,11,12],"buffer_pages":20}`)
	tr.post("/v1/query", `{"algorithm":"bj"}`) // full closure: one shard
	tr.get("/v1/reach?src=3&dst=250")
	tr.get("/v1/plan?sources=3&mode=static")
	tr.post("/v1/arc", `{"ops":[{"op":"insert","from":1,"to":300}]}`)
	tr.get("/v1/reach?src=1&dst=300")
	tr.get("/healthz")
	tr.post("/v1/query", `{"algorithm":"nope","sources":[1,2,3]}`) // replica 400 passes through
	tr.post("/v1/query", `{"algorithm":`)
	tr.get("/v1/reach?src=x&dst=1")
	tr.post("/v1/arc", `{"ops":[{"op":"upsert","from":1,"to":2}]}`)
	tr.get("/metrics")
	tr.check("router")
}

func TestGoldenRouterTwoTenant(t *testing.T) {
	tr := &transcript{t: t, base: newRouter(t, router.Options{}, newTwoTenant(t), newTwoTenant(t))}
	tr.get("/healthz")
	tr.post("/v1/query", `{"algorithm":"srch","graph":"deep","sources":[3,41,97,150,7,88,120,199]}`)
	tr.post("/v1/query?graph=deep", `{"algorithm":"srch","sources":[3,41,97,150,7,88,120,199]}`)
	tr.get("/v1/reach?src=3&dst=150&graph=deep")
	tr.get("/metrics")
	tr.check("router_two_tenant")
}

func TestGoldenRouterNoReplicas(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	tr := &transcript{t: t, base: newRouter(t, router.Options{HealthTimeout: 1}, dead.URL)}
	tr.post("/v1/query", `{"algorithm":"srch","sources":[1]}`)
	tr.get("/v1/reach?src=1&dst=2")
	tr.check("router_no_replicas")
}
