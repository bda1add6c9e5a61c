package server

import (
	"fmt"
	"net/http"
	"testing"
)

// healthzBody mirrors the /healthz JSON a routing tier consumes.
type healthzBody struct {
	Status      string `json:"status"`
	Nodes       int    `json:"nodes"`
	Arcs        int    `json:"arcs"`
	Fingerprint string `json:"fingerprint"`
	Index       *struct {
		Nodes      int    `json:"nodes"`
		Arcs       int    `json:"arcs"`
		Stale      bool   `json:"stale"`
		Generation int    `json:"generation"`
		Chains     int    `json:"chains"`
		Builder    string `json:"builder"`
	} `json:"index"`
}

func TestHealthzFingerprint(t *testing.T) {
	s, ts, db := newTestServer(t, 200, Options{})
	_ = s
	var h healthzBody
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	fp, err := db.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", fp); h.Fingerprint != want {
		t.Fatalf("healthz fingerprint %q, want %q", h.Fingerprint, want)
	}
	if h.Index != nil {
		t.Fatalf("no index loaded but healthz reports %+v", h.Index)
	}

	// A replica serving the same generator parameters must answer with the
	// identical fingerprint: that is the enrollment contract of tcrouter.
	_, ts2, _ := newTestServer(t, 200, Options{})
	var h2 healthzBody
	getJSON(t, ts2.URL+"/healthz", &h2)
	if h2.Fingerprint != h.Fingerprint {
		t.Fatalf("identical datasets fingerprint differently: %q vs %q", h.Fingerprint, h2.Fingerprint)
	}
}

func TestHealthzReportsIndex(t *testing.T) {
	_, url, idx := newIndexedServer(t, 150)
	var h healthzBody
	if code := getJSON(t, url+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Index == nil {
		t.Fatal("healthz omits the loaded index")
	}
	if h.Index.Nodes != idx.N() || h.Index.Stale {
		t.Fatalf("healthz index %+v: want n=%d and stale=false (only a dynamic service bypasses its index)", h.Index, idx.N())
	}
	if h.Index.Generation != 0 {
		t.Fatalf("fresh index at generation %d, want 0", h.Index.Generation)
	}
	if h.Index.Builder != idx.Builder() || h.Index.Chains != idx.Chains() {
		t.Fatalf("healthz reports builder=%q chains=%d, index has builder=%q chains=%d",
			h.Index.Builder, h.Index.Chains, idx.Builder(), idx.Chains())
	}
	if h.Index.Builder == "" || h.Index.Chains <= 0 {
		t.Fatalf("healthz index identity empty: %+v", h.Index)
	}
}
