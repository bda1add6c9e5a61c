package obsv

// Hand-rolled Prometheus primitives: a fixed-bucket histogram, the value
// formatting the Registry's text exposition shares, and a minimal
// exposition-format parser used by the tests to validate /metrics output.
// The subset implemented is exactly what the serving layer emits —
// counter, gauge and histogram families with optional labels — in the text
// format Prometheus scrapes (version 0.0.4). No third-party client library
// is involved.

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Bucket bounds are upper-inclusive, matching Prometheus `le` semantics;
// an implicit +Inf bucket catches everything beyond the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; the last element is the +Inf bucket
	sum    float64
}

// NewHistogram builds a histogram over the given bucket upper bounds,
// which must be strictly increasing.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obsv: histogram bounds not increasing at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// DurationBuckets returns the default latency buckets, in seconds, spanning
// sub-millisecond cache hits to multi-second full closures.
func DurationBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// RatioBuckets returns the default buckets for quantities in [0, 1], such
// as buffer pool hit ratios.
func RatioBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); the exposition builder
// accumulates them into Prometheus's cumulative `le` form.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel flattens newlines; the %q in sampleLine escapes backslash and
// the double quote.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", " ")
}

// Family is one parsed metric family of an exposition payload.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string // full sample name, e.g. tc_request_duration_seconds_bucket
	Labels string // raw label text between the braces, "" if unlabeled
	Value  float64
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)(\s+\d+)?$`)
)

// ParseExposition parses a Prometheus text-format payload and validates
// the invariants a scraper relies on: every family is declared at most
// once, every family with samples carries both HELP and TYPE (TYPE before
// the samples), sample names belong to a declared family (allowing the
// _bucket/_sum/_count series of histograms and summaries), and values
// parse as floats. It returns the families keyed by name.
func ParseExposition(text string) (map[string]*Family, error) {
	fams := make(map[string]*Family)
	get := func(name string) *Family {
		f, ok := fams[name]
		if !ok {
			f = &Family{Name: name}
			fams[name] = f
		}
		return f
	}
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if !metricNameRE.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q in HELP", ln, name)
			}
			f := get(name)
			if f.Help != "" {
				return nil, fmt.Errorf("line %d: duplicate HELP for family %s", ln, name)
			}
			if help == "" {
				return nil, fmt.Errorf("line %d: empty HELP text for family %s", ln, name)
			}
			f.Help = help
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line", ln)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln, typ)
			}
			f := get(name)
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for family %s", ln, name)
			}
			if len(f.Samples) > 0 {
				return nil, fmt.Errorf("line %d: TYPE for %s after its samples", ln, name)
			}
			f.Type = typ
		case strings.HasPrefix(line, "#"):
			// Free-form comment: legal, ignored.
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("line %d: unparseable sample line %q", ln, line)
			}
			name, labels, raw := m[1], m[3], m[4]
			value, err := parseSampleValue(raw)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad sample value %q: %v", ln, raw, err)
			}
			fam, ok := sampleFamily(fams, name)
			if !ok {
				return nil, fmt.Errorf("line %d: sample %s has no declared family", ln, name)
			}
			fam.Samples = append(fam.Samples, PromSample{Name: name, Labels: labels, Value: value})
		}
	}
	for name, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %s has no TYPE", name)
		}
		if f.Help == "" {
			return nil, fmt.Errorf("family %s has no HELP", name)
		}
		if f.Type == "counter" {
			for _, s := range f.Samples {
				if s.Value < 0 || math.IsNaN(s.Value) {
					return nil, fmt.Errorf("counter %s has invalid value %v", name, s.Value)
				}
			}
		}
	}
	return fams, nil
}

// sampleFamily resolves a sample name to its family, allowing the
// _bucket/_sum/_count suffixes of histogram and summary families.
func sampleFamily(fams map[string]*Family, sample string) (*Family, bool) {
	if f, ok := fams[sample]; ok && f.Type != "" {
		return f, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base == sample {
			continue
		}
		if f, ok := fams[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return f, true
		}
	}
	return nil, false
}

func parseSampleValue(raw string) (float64, error) {
	switch raw {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(raw, 64)
}

// CounterValue sums the sample values of a counter family — the scalar a
// monotonicity check compares across scrapes.
func CounterValue(fams map[string]*Family, name string) (float64, bool) {
	f, ok := fams[name]
	if !ok || f.Type != "counter" {
		return 0, false
	}
	var sum float64
	for _, s := range f.Samples {
		sum += s.Value
	}
	return sum, true
}
