package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/faultdisk"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
)

// newFaultedServer builds a server whose database store is wrapped with
// fault injection before the server ever sees it.
func newFaultedServer(t *testing.T, nodes int, opts faultdisk.Options) (*httptest.Server, *core.Database) {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: 4, Locality: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(nodes, arcs)
	db.SwapStore(faultdisk.Wrap(db.Store(), opts))
	s := New(db, Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, db
}

// postRaw posts a query body and decodes the response as a generic map, so
// error bodies are inspectable too.
func postRaw(t *testing.T, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, m
}

// TestQueryStorageFaultIs503ThenRecovers drives the transient-fault
// contract end to end: a scheduled read failure under the engine surfaces
// as a 503 with retry hints, and the very next request — same server, same
// database — succeeds with a correct answer.
func TestQueryStorageFaultIs503ThenRecovers(t *testing.T) {
	sched, err := faultdisk.ParseSchedule("read@0")
	if err != nil {
		t.Fatal(err)
	}
	ts, db := newFaultedServer(t, 300, faultdisk.Options{Schedule: sched})
	body := map[string]any{"algorithm": "btc", "sources": []int32{3, 57}}

	status, hdr, m := postRaw(t, ts.URL, body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("faulted query returned %d, want 503 (body %v)", status, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 lacks a Retry-After header")
	}
	if m["transient"] != true || m["retry"] != true {
		t.Errorf("503 body lacks transient/retry hints: %v", m)
	}
	if ms, ok := m["retry_after_ms"].(float64); !ok || ms <= 0 {
		t.Errorf("503 body lacks a positive retry_after_ms: %v", m)
	}

	// The schedule named read #0 only; the store is past it. The same
	// server must now answer, and correctly.
	status, _, m = postRaw(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("query after fault returned %d (body %v)", status, m)
	}
	want, err := core.Run(db, core.BTC, core.Query{Sources: []int32{3, 57}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts, ok := m["successor_counts"].(map[string]any)
	if !ok {
		t.Fatalf("response lacks successor_counts: %v", m)
	}
	if got := int(counts["3"].(float64)); got != len(want.Successors[3]) {
		t.Errorf("node 3 has %d successors, engine says %d", got, len(want.Successors[3]))
	}
	if got := int(counts["57"].(float64)); got != len(want.Successors[57]) {
		t.Errorf("node 57 has %d successors, engine says %d", got, len(want.Successors[57]))
	}

	var snap api.Snapshot
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if snap.StorageFaults != 1 {
		t.Errorf("storage_faults = %d, want 1", snap.StorageFaults)
	}
	if snap.Errors != 0 {
		t.Errorf("a transient fault was miscounted as a generic error (errors = %d)", snap.Errors)
	}
}

// TestValidationStays400UnderFaults pins the status split: a malformed
// request is the client's fault (400) even while the storage layer is
// failing every read, and only well-formed requests that reach the engine
// see the transient 503.
func TestValidationStays400UnderFaults(t *testing.T) {
	ts, _ := newFaultedServer(t, 100, faultdisk.Options{ReadFailProb: 1})

	status, _, m := postRaw(t, ts.URL, map[string]any{"algorithm": "does-not-exist"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown algorithm returned %d, want 400 (body %v)", status, m)
	}
	if _, hasHint := m["transient"]; hasHint {
		t.Errorf("validation error carries transient hints: %v", m)
	}

	status, _, m = postRaw(t, ts.URL, map[string]any{"algorithm": "btc", "sources": []int32{9999}})
	if status != http.StatusBadRequest {
		t.Fatalf("out-of-range source returned %d, want 400 (body %v)", status, m)
	}

	status, _, m = postRaw(t, ts.URL, map[string]any{"algorithm": "btc", "sources": []int32{1}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("well-formed query under p(read fail)=1 returned %d, want 503 (body %v)", status, m)
	}

	var snap api.Snapshot
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if snap.StorageFaults != 1 {
		t.Errorf("storage_faults = %d, want 1", snap.StorageFaults)
	}
	if snap.Errors != 2 {
		t.Errorf("errors = %d, want 2 (the two 400s)", snap.Errors)
	}
}

// TestEnginePanicIs500AndTenantKeepsServing: a query that panics inside the
// engine (a list id past the 16-bit block owner field) runs on an
// admission slot's goroutine; it must come back as a 500 counted as an
// error, and the same tenant must answer the next query.
func TestEnginePanicIs500AndTenantKeepsServing(t *testing.T) {
	const n = 70000
	db := core.NewDatabase(n, []graph.Arc{{From: 1, To: 2}, {From: n - 1, To: n}})
	s := New(db, Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	status, _, m := postRaw(t, ts.URL, map[string]any{"algorithm": "btc"})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking query returned %d, want 500 (body %v)", status, m)
	}
	status, _, m = postRaw(t, ts.URL, map[string]any{"algorithm": "btc", "sources": []int32{1}})
	if status != http.StatusOK {
		t.Fatalf("query after the panic returned %d (body %v)", status, m)
	}
	counts, ok := m["successor_counts"].(map[string]any)
	if !ok || counts["1"] != float64(1) {
		t.Fatalf("successor_counts = %v, want node 1 with 1 successor", m["successor_counts"])
	}
	var snap api.Snapshot
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if snap.Errors != 1 {
		t.Errorf("errors = %d, want 1", snap.Errors)
	}
}
