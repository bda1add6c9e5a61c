package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// quick shrinks every input so one pass of all five workloads, traced and
// untraced, fits the tier-1 time budget. Names and determinism are what is
// under test here; the numbers a quick run prints mean nothing.
var quick = scale{
	nodes: 300, setups: 1, warmOps: 5, soakDiv: 50, hotShapes: 16,
	writeRate: 50, finalProbes: 100, probeDiv: 16,
}

func quickConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.4, trace: trace, outDir: t.TempDir(), sc: quick}
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]Metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workloads.go equal: names, units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := loadManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\ntables   %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs: manifest has %v, tables have %v", names(m.PerLayer), names(perLayer))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, tables %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, tables {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default --seconds %d", m.RunSeconds, defaultSeconds)
	}
	ok := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range append(append(names(endToEnd), names(perLayer)...), workloadNames()...) {
		if !ok.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// TestEveryWorkloadEmitsDeclaredMetrics runs a shortened pass of every
// workload both ways and checks that what it emits is exactly what is
// declared, that every answer was verified, and that no end-to-end metric is
// zero.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				out, err := runWorkload(quickConfig(t, trace), w)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d: %v", out.Correct, out.Attempted, out.Failed, out.Failures)
				}
				if got, want := keys(out.PerLayer), names(perLayer); !reflect.DeepEqual(got, want) {
					t.Errorf("per-layer names differ:\ngot  %v\nwant %v", got, want)
				}
				if trace {
					if out.Spans == 0 || out.PerLayer["graphgen.generate_ms"].Value == 0 {
						t.Errorf("traced run wrote %d spans, probe value %v", out.Spans, out.PerLayer["graphgen.generate_ms"])
					}
					return
				}
				if got, want := keys(out.EndToEnd), names(endToEnd); !reflect.DeepEqual(got, want) {
					t.Errorf("end-to-end names differ:\ngot  %v\nwant %v", got, want)
				}
				for name, m := range out.EndToEnd {
					if m.Value <= 0 {
						t.Errorf("%s is %v; end-to-end metrics are never zero", name, m.Value)
					}
				}
			})
		}
	}
}

// streamPrefix renders the first n requests of one client's stream as the
// bytes the program would receive.
func streamPrefix(next stream, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		o := next()
		method, path, body := o.encode()
		fmt.Fprintf(&b, "%s %s %s\n", method, path, body)
	}
	return b.Bytes()
}

// TestSameSeedSameInputs: the same seed yields byte-identical request
// streams and the same paper_grid page I/O; another seed yields others.
func TestSameSeedSameInputs(t *testing.T) {
	cfg := quickConfig(t, false)
	other := cfg
	other.seed++
	for _, w := range []serving{serveHot, serveCold, routed} {
		for client := 0; client < clients; client++ {
			a, b := streamPrefix(w.stream(cfg, client), 200), streamPrefix(w.stream(cfg, client), 200)
			if !bytes.Equal(a, b) {
				t.Errorf("%s client %d: same seed, different request streams", w.name, client)
			}
			if bytes.Equal(a, streamPrefix(w.stream(other, client), 200)) {
				t.Errorf("%s client %d: the stream ignores the seed", w.name, client)
			}
		}
		if bytes.Equal(streamPrefix(w.stream(cfg, 0), 200), streamPrefix(w.stream(cfg, 1), 200)) {
			t.Errorf("%s: both clients send the same stream", w.name)
		}
	}

	arcs, err := servingGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writes := func(seed int64) string {
		m := newMutator(cfg.sc.nodes, arcs, clientRand(seed, 1, 6))
		var b strings.Builder
		for i := 0; i < 50; i++ {
			fmt.Fprintln(&b, m.batch())
		}
		return b.String()
	}
	if writes(cfg.seed) != writes(cfg.seed) || writes(cfg.seed) == writes(other.seed) {
		t.Error("mutate_mix write stream is not a function of the seed")
	}

	pageIO := func(c config) float64 {
		out, err := runWorkload(c, *workloadNamed("paper_grid"))
		if err != nil {
			t.Fatal(err)
		}
		return out.PerLayer["harness.page_io_per_op"].Value
	}
	if a, b := pageIO(cfg), pageIO(cfg); a != b || a == 0 {
		t.Errorf("paper_grid page I/O per op: %v then %v for the same seed", a, b)
	}
	if pageIO(cfg) == pageIO(other) {
		t.Error("paper_grid page I/O ignores the seed")
	}
}

// TestCompareVerdicts: -compare passes an identical pair, flags a 20%
// slowdown (inside every bound, but no segment overlaps) as worse, and calls
// a 40% one a regression and exits nonzero on it.
func TestCompareVerdicts(t *testing.T) {
	m := loadManifest(t)
	mk := func(slow float64) *result {
		o := newOutcome("serve_cold")
		o.Correct, o.Attempted = true, 100
		for _, d := range endToEnd {
			v := 10 * slow
			if d.Better == "higher" {
				v = 10 / slow
			}
			o.EndToEnd[d.Name] = Metric{Value: v, Unit: d.Unit, Segments: []float64{v * 0.99, v, v, v, v * 1.01}}
		}
		return &result{Seed: 1, Seconds: 15, Workloads: []*outcome{o}}
	}
	for _, c := range []struct {
		slow    float64
		verdict string
		code    int
	}{{1, pass, 0}, {1.2, worse, 0}, {1.4, regress, 1}} {
		var out bytes.Buffer
		if code := compareResults(m, mk(1), mk(c.slow), &out); code != c.code {
			t.Errorf("slowdown x%v: exit %d, want %d\n%s", c.slow, code, c.code, out.String())
		}
		for _, d := range endToEnd {
			row := regexp.MustCompile(`serve_cold\s+` + regexp.QuoteMeta(d.Name) + `\s.*\s` + c.verdict + `\n`)
			if !row.MatchString(out.String()) {
				t.Errorf("slowdown x%v: %s: want verdict %s in\n%s", c.slow, d.Name, c.verdict, out.String())
			}
		}
	}
	// A noisy base cannot show a metric unchanged.
	noisy := mk(1)
	noisy.Workloads[0].EndToEnd["ops_per_s"] = Metric{Value: 10, Unit: "1/s", Segments: []float64{5, 8, 10, 12, 15}}
	var out bytes.Buffer
	if code := compareResults(m, noisy, mk(1), &out); code != 0 || !strings.Contains(out.String(), unresolved) {
		t.Errorf("noisy base: exit %d, want an unresolved row\n%s", code, out.String())
	}
	// A wrong answer fails the comparison whatever the timings say.
	wrong := mk(1)
	wrong.Workloads[0].Correct, wrong.Workloads[0].Failed = false, 1
	if code := compareResults(m, mk(1), wrong, &out); code != 1 {
		t.Errorf("incorrect candidate: exit %d, want 1", code)
	}
}

// TestStrataSources: one source from each of k equal strata of the ids, so
// every source is distinct and the set covers the range whatever the seed.
func TestStrataSources(t *testing.T) {
	for _, c := range []struct{ n, k int }{{2000, 10}, {2000, 200}, {2000, 256}, {300, 200}, {300, 64}} {
		for seed := int64(1); seed <= 3; seed++ {
			s := strataSources(c.n, c.k, rand.New(rand.NewSource(seed)))
			if len(s) != c.k {
				t.Fatalf("n=%d k=%d: %d sources", c.n, c.k, len(s))
			}
			for i, v := range s {
				if lo, hi := i*c.n/c.k, (i+1)*c.n/c.k; int(v) <= lo || int(v) > hi {
					t.Errorf("n=%d k=%d seed=%d: source %d is %d, outside stratum (%d, %d]", c.n, c.k, seed, i, v, lo, hi)
				}
			}
		}
	}
}

// TestSegmentRate: the median of the segment rates where every segment is
// thick enough, the rate of the whole window where one is not.
func TestSegmentRate(t *testing.T) {
	var thick, thin []sample
	for seg, n := range []int{1000, 1200, 5000} {
		thick = append(thick, make([]sample, n)...)
		thin = append(thin, make([]sample, n/10)...)
		for i := 0; i < n; i++ {
			thick[len(thick)-1-i].seg = int8(seg)
		}
		for i := 0; i < n/10; i++ {
			thin[len(thin)-1-i].seg = int8(seg)
		}
	}
	all := []int{0, 1, 2}
	if got := segmentRate(thick, all, 2*time.Second); got.Value != 600 || got.Samples != 7200 {
		t.Errorf("thick segments: %+v, want the median rate 600", got)
	}
	if got := segmentRate(thin, all, 2*time.Second); got.Value != 120 || len(got.Segments) != 3 {
		t.Errorf("thin segments: %+v, want 720 operations in 6 s = 120", got)
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); got != 1.0 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
