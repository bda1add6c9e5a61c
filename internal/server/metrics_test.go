package server

import (
	"encoding/json"
	"testing"
	"time"

	"tcstudy/internal/api"
)

func TestMetricsSnapshotCounters(t *testing.T) {
	s0, _, _ := newTestServer(t, 50, Options{})
	m := s0.Metrics()
	m.Queries.Add(3)
	m.Reaches.Add(2)
	m.Plans.Add(1)
	m.CacheHits.Add(4)
	m.CacheMisses.Add(1)
	m.Rejected.Add(5)
	m.PagesServed.Add(1234)
	s := m.Snapshot()
	if s.Queries != 3 || s.Reaches != 2 || s.Plans != 1 {
		t.Fatalf("request counters wrong: %+v", s)
	}
	if s.CacheHitRate != 0.8 {
		t.Fatalf("hit rate %f, want 0.8", s.CacheHitRate)
	}
	if s.QPS <= 0 {
		t.Fatalf("qps %f, want > 0 after completed requests", s.QPS)
	}
	if s.PagesServed != 1234 || s.Rejected != 5 {
		t.Fatalf("counters wrong: %+v", s)
	}
}

func TestMetricsLatencyQuantiles(t *testing.T) {
	s0, _, _ := newTestServer(t, 50, Options{})
	m := s0.Metrics()
	// 1..100 ms: quantiles are exact order statistics of the window.
	for i := 1; i <= 100; i++ {
		m.ObserveLatency(time.Duration(i) * time.Millisecond)
	}
	q := m.Snapshot().LatencyMS
	if q.Count != 100 {
		t.Fatalf("count %d, want 100", q.Count)
	}
	if q.P50 < 45 || q.P50 > 55 {
		t.Fatalf("p50 %f out of range", q.P50)
	}
	if q.P90 < 85 || q.P90 > 95 {
		t.Fatalf("p90 %f out of range", q.P90)
	}
	if q.P99 < 95 || q.P99 > 100 {
		t.Fatalf("p99 %f out of range", q.P99)
	}
	if q.Max != 100 {
		t.Fatalf("max %f, want 100", q.Max)
	}
	if !(q.P50 <= q.P90 && q.P90 <= q.P99 && q.P99 <= q.Max) {
		t.Fatalf("quantiles not monotone: %+v", q)
	}
}

func TestMetricsLatencyWindowWraps(t *testing.T) {
	s0, _, _ := newTestServer(t, 50, Options{})
	m := s0.Metrics()
	// Overfill the ring; the window must keep only recent samples and the
	// total count must keep the true number.
	for i := 0; i < latencyWindow+100; i++ {
		m.ObserveLatency(time.Millisecond)
	}
	q := m.Snapshot().LatencyMS
	if q.Count != latencyWindow+100 {
		t.Fatalf("count %d, want %d", q.Count, latencyWindow+100)
	}
	if q.Max != 1 {
		t.Fatalf("max %f, want 1", q.Max)
	}
}

func TestMetricsEmptySnapshotMarshals(t *testing.T) {
	s0, _, _ := newTestServer(t, 50, Options{})
	b, err := json.Marshal(s0.Metrics().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var round api.Snapshot
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if round.LatencyMS.Count != 0 {
		t.Fatalf("empty snapshot has latency samples: %+v", round)
	}
}
