package obsv

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	// 0.05 and 0.1 land in le=0.1 (upper-inclusive), 0.5 in le=1, 2 in
	// le=10, 100 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if math.Abs(s.Sum-102.65) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-increasing bounds")
		}
	}()
	NewHistogram(1, 1)
}

// buildExposition assembles a payload exercising every family kind and
// every way a series gets its value: a handle, a callback, a histogram.
func buildExposition() string {
	r := NewRegistry()
	r.Counter("tc_queries_total", "Queries accepted for processing.").Int().Add(42)
	r.Gauge(`tc_in_flight`, "Requests currently being processed.").Func(func() float64 { return 3 })
	reqs := r.Counter("tc_requests_total", "Requests by endpoint.", "endpoint")
	reqs.Int("reach").Add(2)
	reqs.Int("query").Add(39)
	reqs.Int("query").Add(1) // the same series, resolved again
	h := r.Histogram("tc_request_duration_seconds", "Request latency.", []float64{0.01, 0.1, 1}, "endpoint").Hist("query")
	h.Observe(0.004)
	h.Observe(0.2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		panic(err)
	}
	return b.String()
}

func TestExpositionRoundTrip(t *testing.T) {
	text := buildExposition()
	fams, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, text)
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4", len(fams))
	}
	if v, ok := CounterValue(fams, "tc_queries_total"); !ok || v != 42 {
		t.Fatalf("tc_queries_total = %v, %v", v, ok)
	}
	if v, ok := CounterValue(fams, "tc_requests_total"); !ok || v != 42 {
		t.Fatalf("summed tc_requests_total = %v, %v", v, ok)
	}
	hist := fams["tc_request_duration_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("type = %q", hist.Type)
	}
	// buckets are cumulative: le=0.01 -> 1, le=0.1 -> 1, le=1 -> 1, +Inf -> 2.
	var infSeen bool
	for _, s := range hist.Samples {
		if strings.HasSuffix(s.Name, "_bucket") && strings.Contains(s.Labels, `le="+Inf"`) {
			infSeen = true
			if s.Value != 2 {
				t.Fatalf("+Inf bucket = %v, want 2", s.Value)
			}
		}
		if strings.HasSuffix(s.Name, "_count") && s.Value != 2 {
			t.Fatalf("count = %v, want 2", s.Value)
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted")
	}
	// A family's series are exposed sorted by label value, whatever order
	// they were resolved in.
	if q, r := strings.Index(text, `tc_requests_total{endpoint="query"} 40`), strings.Index(text, `tc_requests_total{endpoint="reach"} 2`); q < 0 || r < q {
		t.Fatalf("tc_requests_total series missing or unsorted:\n%s", text)
	}
}

func TestExpositionRejectsDuplicateFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate family")
		}
	}()
	r.Gauge("x_total", "x again")
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"sample without family": "loose_metric 1\n",
		"family without TYPE":   "# HELP x_total help text\nx_total 1\n",
		"family without HELP":   "# TYPE x_total counter\nx_total 1\n",
		"duplicate TYPE":        "# HELP x x\n# TYPE x counter\n# TYPE x counter\nx 1\n",
		"duplicate HELP":        "# HELP x x\n# HELP x x\n# TYPE x counter\nx 1\n",
		"sample before TYPE":    "# HELP x x\nx 1\n# TYPE x counter\n",
		"bad value":             "# HELP x x\n# TYPE x counter\nx one\n",
		"negative counter":      "# HELP x x\n# TYPE x counter\nx -4\n",
		"unknown type":          "# HELP x x\n# TYPE x flooble\nx 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: accepted invalid payload", name)
		}
	}
	// Hmm-free baseline: the same shapes, valid, must parse.
	ok := "# HELP x_total fine\n# TYPE x_total counter\nx_total 1\nx_total{a=\"b\"} 2\n\n# some comment\n"
	if _, err := ParseExposition(ok); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
}

func TestParseTypeAfterSamplesOfOtherFamilyOK(t *testing.T) {
	text := "# HELP a a\n# TYPE a counter\na 1\n# HELP b b\n# TYPE b gauge\nb 2\n"
	if _, err := ParseExposition(text); err != nil {
		t.Fatalf("sequential families rejected: %v", err)
	}
}

// TestRegistryConcurrentSeries resolves the same lazily-created series from
// many goroutines — the router's per-tenant counters and the server's
// per-algorithm histograms do this on request paths — while a scraper
// reads: every increment must land on the one series of its label tuple.
func TestRegistryConcurrentSeries(t *testing.T) {
	r := NewRegistry()
	reads := r.Counter("reads_total", "Reads by tenant.", "tenant")
	phase := r.Histogram("phase_seconds", "Phase time.", DurationBuckets(), "algorithm", "phase")
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				reads.Int(fmt.Sprintf("t%d", i%3)).Add(1)
				phase.Hist("btc", "compute").Observe(0.001)
				if i%50 == 0 {
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if v, _ := CounterValue(fams, "reads_total"); v != workers*rounds || len(fams["reads_total"].Samples) != 3 {
		t.Fatalf("reads_total sums to %v over %d series, want %d over 3", v, len(fams["reads_total"].Samples), workers*rounds)
	}
	if got := phase.Hist("btc", "compute").Snapshot().Count; got != workers*rounds {
		t.Fatalf("histogram holds %d observations, want %d", got, workers*rounds)
	}
}
