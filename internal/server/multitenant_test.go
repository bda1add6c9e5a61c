package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/obsv"
	"tcstudy/internal/planner"
)

// twoTenantDBs builds two graphs with opposite shapes — "wide" is a sparse
// low-degree DAG, "deep" a local high-degree one — so the tenants are
// distinguishable in every observable surface.
func twoTenantDBs(t *testing.T) (*core.Database, *core.Database) {
	t.Helper()
	wideArcs, err := graphgen.Generate(graphgen.Params{Nodes: 300, OutDegree: 2, Locality: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	deepArcs, err := graphgen.Generate(graphgen.Params{Nodes: 200, OutDegree: 6, Locality: 20, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewDatabase(300, wideArcs), core.NewDatabase(200, deepArcs)
}

// newTwoTenantServer serves wide+deep from one process; wide is the
// default tenant.
func newTwoTenantServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	wide, deep := twoTenantDBs(t)
	s, err := NewMulti([]NamedGraph{
		{Name: "wide", DB: wide},
		{Name: "deep", DB: deep},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestMultiTenantDifferential pins the core multi-tenancy guarantee: two
// named graphs behind one server answer exactly like two single-graph
// processes, for both tenant-selection surfaces (graph= parameter and the
// body field).
func TestMultiTenantDifferential(t *testing.T) {
	_, multi := newTwoTenantServer(t, Options{})
	wide, deep := twoTenantDBs(t)
	soloWide := httptest.NewServer(New(wide, Options{}))
	defer soloWide.Close()
	soloDeep := httptest.NewServer(New(deep, Options{}))
	defer soloDeep.Close()

	check := func(tenant, solo string, body map[string]any) {
		t.Helper()
		mb := map[string]any{"graph": tenant}
		for k, v := range body {
			mb[k] = v
		}
		respM, qm := postQuery(t, multi.URL, mb)
		respS, qs := postQuery(t, solo, body)
		if respM.StatusCode != http.StatusOK || respS.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: multi status %d, solo status %d", tenant, respM.StatusCode, respS.StatusCode)
		}
		if qm.Graph != tenant {
			t.Fatalf("multi response names graph %q, want %q", qm.Graph, tenant)
		}
		if qm.Metrics.TotalIO != qs.Metrics.TotalIO {
			t.Fatalf("tenant %s: multi I/O %d != solo %d", tenant, qm.Metrics.TotalIO, qs.Metrics.TotalIO)
		}
		if qm.Metrics.DistinctTuples != qs.Metrics.DistinctTuples {
			t.Fatalf("tenant %s: multi tuples %d != solo %d", tenant, qm.Metrics.DistinctTuples, qs.Metrics.DistinctTuples)
		}
		for node, n := range qs.SuccessorCounts {
			if qm.SuccessorCounts[node] != n {
				t.Fatalf("tenant %s: successor count of %d: multi %d != solo %d",
					tenant, node, qm.SuccessorCounts[node], n)
			}
		}
	}
	for _, alg := range []string{"btc", "seminaive"} {
		check("wide", soloWide.URL, map[string]any{"algorithm": alg, "sources": []int32{3, 40, 120}})
		check("deep", soloDeep.URL, map[string]any{"algorithm": alg, "sources": []int32{3, 40, 120}})
	}

	// graph= parameter surface, via /v1/reach (identical answers).
	var rm, rs api.ReachResponse
	if st := getJSON(t, multi.URL+"/v1/reach?graph=deep&src=3&dst=50", &rm); st != http.StatusOK {
		t.Fatalf("multi reach status %d", st)
	}
	if st := getJSON(t, soloDeep.URL+"/v1/reach?src=3&dst=50", &rs); st != http.StatusOK {
		t.Fatalf("solo reach status %d", st)
	}
	if rm.Reachable != rs.Reachable {
		t.Fatalf("reach differs: multi %t, solo %t", rm.Reachable, rs.Reachable)
	}
	if rm.Graph != "deep" {
		t.Fatalf("reach response names graph %q, want deep", rm.Graph)
	}

	// Unknown tenants are client errors naming the served graphs.
	resp, _ := postQuery(t, multi.URL, map[string]any{"algorithm": "btc", "graph": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown graph returned %d, want 400", resp.StatusCode)
	}
}

// TestTenantCacheQuota pins that result caches are per-tenant quotas: one
// tenant churning through distinct queries cannot evict another tenant's
// warm entry.
func TestTenantCacheQuota(t *testing.T) {
	s, ts := newTwoTenantServer(t, Options{CacheEntries: 4})

	// Warm one deep-tenant entry.
	warm := map[string]any{"algorithm": "srch", "sources": []int32{5}, "graph": "deep"}
	if resp, qr := postQuery(t, ts.URL, warm); resp.StatusCode != http.StatusOK || qr.Cached {
		t.Fatalf("warmup: status %d cached %t", resp.StatusCode, qr.Cached)
	}
	// Blow well past the quota with distinct wide-tenant queries.
	for i := 1; i <= 12; i++ {
		body := map[string]any{"algorithm": "srch", "sources": []int32{int32(i)}, "graph": "wide"}
		if resp, _ := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("wide query %d: status %d", i, resp.StatusCode)
		}
	}
	if got := s.tenants["wide"].cache.Len(); got > 4 {
		t.Fatalf("wide cache holds %d entries, quota is 4", got)
	}
	// The deep tenant's entry must still be warm.
	resp, qr := postQuery(t, ts.URL, warm)
	if resp.StatusCode != http.StatusOK || !qr.Cached {
		t.Fatalf("deep tenant's entry evicted by wide tenant's churn: status %d cached %t",
			resp.StatusCode, qr.Cached)
	}
}

// TestTenantPlannerIsolation pins that observation stores are per tenant:
// tenant A's observations never alter tenant B's plan.
func TestTenantPlannerIsolation(t *testing.T) {
	s, ts := newTwoTenantServer(t, Options{})

	var before api.PlanResponse
	if st := getJSON(t, ts.URL+"/v1/plan?graph=deep&sources=1", &before); st != http.StatusOK {
		t.Fatalf("plan status %d", st)
	}
	if before.Mode != "adaptive" {
		t.Fatalf("plan mode %q, want adaptive", before.Mode)
	}

	// Flood the wide tenant's store with direct observations biased toward
	// the statically worst candidate (far stronger than any real workload
	// could be).
	wideTn := s.tenants["wide"]
	prof, err := wideTn.profile()
	if err != nil {
		t.Fatal(err)
	}
	ests := planner.Estimates(prof, 1, s.opts.DefaultConfig.BufferPages)
	underdog := ests[len(ests)-1].Alg
	for i := 0; i < 50; i++ {
		for _, e := range ests {
			if e.Alg == underdog {
				wideTn.adapt.Observe(prof, 1, s.opts.DefaultConfig.BufferPages, e.Alg, 1, 1)
			} else {
				wideTn.adapt.Observe(prof, 1, s.opts.DefaultConfig.BufferPages, e.Alg, 1e9, 100000)
			}
		}
	}
	var widePlan api.PlanResponse
	if st := getJSON(t, ts.URL+"/v1/plan?graph=wide&sources=1", &widePlan); st != http.StatusOK {
		t.Fatalf("wide plan status %d", st)
	}
	if widePlan.Estimates[0].Algorithm != string(underdog) {
		t.Fatalf("wide tenant's observations did not move its own plan (got %s, want %s)",
			widePlan.Estimates[0].Algorithm, underdog)
	}

	// The deep tenant's plan must be byte-for-byte unchanged.
	var after api.PlanResponse
	if st := getJSON(t, ts.URL+"/v1/plan?graph=deep&sources=1", &after); st != http.StatusOK {
		t.Fatalf("plan status %d", st)
	}
	if len(after.Estimates) != len(before.Estimates) {
		t.Fatalf("deep plan length changed: %d -> %d", len(before.Estimates), len(after.Estimates))
	}
	for i := range after.Estimates {
		if after.Estimates[i] != before.Estimates[i] {
			t.Fatalf("tenant A's observations leaked into tenant B's plan at rank %d:\nbefore %+v\nafter  %+v",
				i, before.Estimates[i], after.Estimates[i])
		}
	}
}

// TestTwoTenantServing is the CI smoke: query both graphs through one
// server and assert the tenant-labeled metric families and the planner
// hit-rate-backing counters appear in the /metrics scrape.
func TestTwoTenantServing(t *testing.T) {
	_, ts := newTwoTenantServer(t, Options{})

	for _, tenant := range []string{"wide", "deep"} {
		body := map[string]any{"algorithm": "btc", "sources": []int32{3, 9}, "graph": tenant}
		if resp, qr := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusOK || qr.Graph != tenant {
			t.Fatalf("tenant %s: status %d graph %q", tenant, resp.StatusCode, qr.Graph)
		}
		var plan api.PlanResponse
		if st := getJSON(t, ts.URL+"/v1/plan?graph="+tenant, &plan); st != http.StatusOK {
			t.Fatalf("tenant %s: plan status %d", tenant, st)
		}
		if plan.Planner == nil || plan.Planner.Observations == 0 {
			t.Fatalf("tenant %s: planner saw no observations after an executed query: %+v",
				tenant, plan.Planner)
		}
	}

	// Health reports both tenants with distinct fingerprints.
	var hz struct {
		Graphs map[string]struct {
			Nodes       int    `json:"nodes"`
			Fingerprint string `json:"fingerprint"`
		} `json:"graphs"`
	}
	if st := getJSON(t, ts.URL+"/healthz", &hz); st != http.StatusOK {
		t.Fatalf("healthz status %d", st)
	}
	if len(hz.Graphs) != 2 || hz.Graphs["wide"].Nodes != 300 || hz.Graphs["deep"].Nodes != 200 {
		t.Fatalf("healthz graphs block wrong: %+v", hz.Graphs)
	}
	if hz.Graphs["wide"].Fingerprint == hz.Graphs["deep"].Fingerprint {
		t.Fatal("distinct graphs report identical fingerprints")
	}

	text, fams := scrape(t, ts.URL)
	for _, fam := range []string{
		"tc_tenant_requests_total", "tc_tenant_cache_hits_total",
		"tc_tenant_cache_misses_total", "tc_tenant_rejected_total",
		"tc_tenant_pages_served_total", "tc_tenant_cache_entries",
		"tc_tenant_cache_capacity", "tc_tenant_queue_depth",
		"tc_planner_decisions_total", "tc_planner_hits_total",
		"tc_planner_explorations_total", "tc_planner_observations_total",
		"tc_planner_hit_rate",
	} {
		if fams[fam] == nil {
			t.Errorf("family %s missing from two-tenant scrape", fam)
		}
	}
	for _, tenant := range []string{"wide", "deep"} {
		label := fmt.Sprintf("tenant=%q", tenant)
		if !strings.Contains(text, label) {
			t.Errorf("no sample labeled %s in scrape:\n%s", label, text)
		}
		found := false
		for _, smp := range fams["tc_planner_observations_total"].Samples {
			if strings.Contains(smp.Labels, label) && smp.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("tc_planner_observations_total{%s} did not advance", label)
		}
	}
	if v, ok := obsv.CounterValue(fams, "tc_planner_decisions_total"); !ok || v == 0 {
		t.Errorf("tc_planner_decisions_total = %v (ok=%t), want > 0", v, ok)
	}
}

// TestPlanZeroArcGraph is the /v1/plan regression for an empty relation: a
// ranked list with zero-work estimates and a well-formed profile, no NaN.
func TestPlanZeroArcGraph(t *testing.T) {
	db := core.NewDatabase(50, nil)
	s := New(db, Options{})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	for _, mode := range []string{"", "&mode=static"} {
		var plan api.PlanResponse
		if st := getJSON(t, ts.URL+"/v1/plan?sources=1"+mode, &plan); st != http.StatusOK {
			t.Fatalf("plan status %d (mode %q)", st, mode)
		}
		if plan.Profile.Nodes != 50 || plan.Profile.Arcs != 0 {
			t.Fatalf("profile wrong: %+v", plan.Profile)
		}
		if len(plan.Estimates) == 0 {
			t.Fatal("zero-arc graph produced no ranked estimates")
		}
		for _, e := range plan.Estimates {
			if e.IO != 0 {
				t.Fatalf("zero-arc estimate for %s is %v, want 0 (mode %q)", e.Algorithm, e.IO, mode)
			}
			if e.Why == "" {
				t.Fatalf("zero-arc estimate for %s carries no rationale", e.Algorithm)
			}
		}
	}
}

// TestPlanStaticModeMatchesAdaptiveCold pins the /v1/plan contract end to
// end: with a cold observation store the adaptive ranking is identical to
// ?mode=static (same algorithms, same order, blended == static estimate).
func TestPlanStaticModeMatchesAdaptiveCold(t *testing.T) {
	_, ts, _ := newTestServer(t, 300, Options{})
	var static, adaptive api.PlanResponse
	if st := getJSON(t, ts.URL+"/v1/plan?sources=2&mode=static", &static); st != http.StatusOK {
		t.Fatalf("static plan status %d", st)
	}
	if st := getJSON(t, ts.URL+"/v1/plan?sources=2", &adaptive); st != http.StatusOK {
		t.Fatalf("adaptive plan status %d", st)
	}
	if static.Mode != "static" || adaptive.Mode != "adaptive" {
		t.Fatalf("modes: static=%q adaptive=%q", static.Mode, adaptive.Mode)
	}
	if len(static.Estimates) != len(adaptive.Estimates) {
		t.Fatalf("estimate counts differ: %d vs %d", len(static.Estimates), len(adaptive.Estimates))
	}
	for i := range static.Estimates {
		se, ae := static.Estimates[i], adaptive.Estimates[i]
		if se.Algorithm != ae.Algorithm || se.IO != ae.IO {
			t.Fatalf("rank %d differs cold: static %+v adaptive %+v", i, se, ae)
		}
		if ae.BlendedIO != ae.IO {
			t.Fatalf("cold blended score %v != static estimate %v for %s", ae.BlendedIO, ae.IO, ae.Algorithm)
		}
	}
	if adaptive.Planner == nil {
		t.Fatal("adaptive plan carries no planner stats block")
	}
}
