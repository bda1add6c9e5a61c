package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/server"
)

// newDynamicReplica spins one mutable tcserve stack: the same generated
// graph as newReplicaServer, fronted by a dynamic mutation service in
// manual-rebuild mode (deterministic tests; overlay answers stay correct).
func newDynamicReplica(t *testing.T, nodes int, seed int64) *httptest.Server {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	idx, err := index.Build(graph.New(nodes, arcs))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := db.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamic.New(nodes, arcs, idx, dynamic.Options{Manual: true, BaseFingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(db, server.Options{Dynamic: dyn})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		dyn.Close()
	})
	return ts
}

// postArcDirect sends one mutation batch straight to a replica.
func postArcDirect(t *testing.T, base, body string) (int, api.ArcResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/arc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar api.ArcResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ar
}

func fetchFingerprint(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Fingerprint
}

func fetchReach(t *testing.T, base string, src, dst int32) bool {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/reach?src=%d&dst=%d", base, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reach %d->%d: status %d", src, dst, resp.StatusCode)
	}
	var rr struct {
		Reachable bool `json:"reachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr.Reachable
}

// TestRouterWriteFanout proves the write path is invisible to consistency:
// every mutation batch fanned through the router leaves all three replicas
// with matching dataset fingerprints, and the routed fleet answers every
// reach probe identically to a single mutated tcserve fed the same batch
// sequence directly.
func TestRouterWriteFanout(t *testing.T) {
	const nodes = 120
	a := newDynamicReplica(t, nodes, 7)
	b := newDynamicReplica(t, nodes, 7)
	c := newDynamicReplica(t, nodes, 7)
	single := newDynamicReplica(t, nodes, 7)
	rt, ts := newFleetRouter(t, Options{}, a.URL, b.URL, c.URL)

	rng := uint64(99)
	next := func(n int32) int32 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int32(rng>>33)%n + 1
	}
	for step := 0; step < 15; step++ {
		var ops []string
		for k := 0; k < 3; k++ {
			op := "insert"
			if (step+k)%3 == 2 {
				op = "delete"
			}
			ops = append(ops, fmt.Sprintf(`{"op":%q,"from":%d,"to":%d}`, op, next(nodes), next(nodes)))
		}
		body := fmt.Sprintf(`{"ops":[%s]}`, strings.Join(ops, ","))

		resp, err := http.Post(ts.URL+"/v1/arc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ar api.RouterArcResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: router write status %d", step, resp.StatusCode)
		}
		if ar.Replicas != 3 {
			t.Fatalf("step %d: batch acknowledged by %d replicas, want 3", step, ar.Replicas)
		}
		if code, sr := postArcDirect(t, single.URL, body); code != http.StatusOK {
			t.Fatalf("step %d: single write status %d", step, code)
		} else if sr.Fingerprint != ar.Fingerprint {
			t.Fatalf("step %d: router fleet fingerprint %s, single server %s", step, ar.Fingerprint, sr.Fingerprint)
		}

		// All replicas must agree with each other and with the single server.
		fps := map[string]string{
			"a": fetchFingerprint(t, a.URL), "b": fetchFingerprint(t, b.URL),
			"c": fetchFingerprint(t, c.URL), "single": fetchFingerprint(t, single.URL),
		}
		for name, fp := range fps {
			if fp != ar.Fingerprint {
				t.Fatalf("step %d: replica %s fingerprint %s, fleet reports %s", step, name, fp, ar.Fingerprint)
			}
		}

		// Routed reach answers match the single mutated server.
		for p := 0; p < 10; p++ {
			src, dst := next(nodes), next(nodes)
			if got, want := fetchReach(t, ts.URL, src, dst), fetchReach(t, single.URL, src, dst); got != want {
				t.Fatalf("step %d: routed reach(%d,%d)=%t, single server says %t", step, src, dst, got, want)
			}
		}
	}
	// The router's pinned fleet fingerprint tracked the writes: a health
	// sweep right now keeps all three replicas enrolled.
	rt.CheckNow(context.Background())
	if _, h := routerHealthz(t, ts.URL); h["healthy_replicas"].(float64) != 3 {
		t.Fatalf("post-write sweep dropped replicas: %v", h)
	}
}

// TestRouterWriteValidationPassthrough: a batch every replica rejects as
// malformed surfaces the replica's own 400, not a 502.
func TestRouterWriteValidationPassthrough(t *testing.T) {
	a := newDynamicReplica(t, 50, 7)
	b := newDynamicReplica(t, 50, 7)
	_, ts := newFleetRouter(t, Options{}, a.URL, b.URL)

	resp, err := http.Post(ts.URL+"/v1/arc", "application/json",
		strings.NewReader(`{"ops":[{"op":"upsert","from":1,"to":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch: status %d, want 400", resp.StatusCode)
	}
}

// TestRouterWritePartialFailure: a write missing any ack fails the whole
// batch with a retryable error and counts a write failure.
func TestRouterWritePartialFailure(t *testing.T) {
	a := newDynamicReplica(t, 50, 7)
	b := newDynamicReplica(t, 50, 7)
	rt, ts := newFleetRouter(t, Options{Retries: 1}, a.URL, b.URL)

	b.Close() // enrolled but now unreachable: the ack can never arrive

	resp, err := http.Post(ts.URL+"/v1/arc", "application/json",
		strings.NewReader(`{"ops":[{"op":"insert","from":1,"to":50}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial write: status %d, want 502", resp.StatusCode)
	}
	var e struct {
		Error     string `json:"error"`
		Transient bool   `json:"transient"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !e.Transient || !strings.Contains(e.Error, "1/2") {
		t.Fatalf("partial write error %+v", e)
	}
	if rt.Metrics().WriteFailures.Load() != 1 {
		t.Fatalf("write failures %d, want 1", rt.Metrics().WriteFailures.Load())
	}

	// The acked replica holds the batch and the router adopted its
	// fingerprint: the sweeps must keep it enrolled (and drop only the
	// dead one, after FailThreshold misses) instead of wedging the whole
	// fleet as mismatched.
	for i := 0; i < 3; i++ {
		rt.CheckNow(context.Background())
	}
	_, h := routerHealthz(t, ts.URL)
	if got := h["healthy_replicas"].(float64); got != 1 {
		t.Fatalf("healthy replicas after partial write + sweep: %v, want 1:\n%v", got, h)
	}
	if !fetchReach(t, ts.URL, 1, 50) {
		t.Fatal("routed reach(1,50) should see the half-acked insert via the surviving replica")
	}
}

// TestRouterLagExclusion: replicas whose applied write sequence trails the
// fleet's most advanced replica beyond MaxGenerationLag are held out of
// the read ring (they would answer without recent writes) but stay
// enrolled, and rejoin once they catch up.
func TestRouterLagExclusion(t *testing.T) {
	a := newDynamicReplica(t, 50, 7)
	b := newDynamicReplica(t, 50, 7)
	c := newDynamicReplica(t, 50, 7)
	rt, ts := newFleetRouter(t, Options{MaxGenerationLag: 2}, a.URL, b.URL, c.URL)

	// Three fingerprint-neutral batches applied only to replica a: insert
	// then delete the same arc leaves the dataset identity untouched, so b
	// and c still match the fleet — they have just missed 6 sequence
	// numbers' worth of writes.
	noop := []string{
		`{"ops":[{"op":"insert","from":1,"to":49}]}`,
		`{"ops":[{"op":"delete","from":1,"to":49}]}`,
	}
	catchUp := func(base string) {
		for i := 0; i < 3; i++ {
			for _, body := range noop {
				if code, _ := postArcDirect(t, base, body); code != http.StatusOK {
					t.Fatalf("direct write to %s: status %d", base, code)
				}
			}
		}
	}
	catchUp(a.URL)
	rt.CheckNow(context.Background())

	rg := rt.snapshot()
	if rg == nil {
		t.Fatal("ring empty after lag exclusion")
	}
	owners := map[string]bool{}
	for s := int32(1); s <= 50; s++ {
		owners[rg.owner(s).url] = true
	}
	if len(owners) != 1 || !owners[a.URL] {
		t.Fatalf("read ring owners %v, want only the caught-up replica %s", owners, a.URL)
	}
	_, h := routerHealthz(t, ts.URL)
	lagging := 0
	for _, v := range h["replicas"].([]any) {
		if v.(map[string]any)["lagging"] == true {
			lagging++
		}
	}
	if lagging != 2 {
		t.Fatalf("healthz reports %d lagging replicas, want 2:\n%v", lagging, h)
	}

	// Replay the same batches on b and c: the gap closes and the next sweep
	// restores the full ring.
	catchUp(b.URL)
	catchUp(c.URL)
	rt.CheckNow(context.Background())
	owners = map[string]bool{}
	for s := int32(1); s <= 50; s++ {
		owners[rt.snapshot().owner(s).url] = true
	}
	if len(owners) != 3 {
		t.Fatalf("ring owners after catch-up %v, want all 3 replicas", owners)
	}
}
