package obsv

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a set of metric families, each declared exactly once — name,
// help, kind and label names — in the order /metrics lists them. Declaring
// a family hands back its Vec; resolving a series on the Vec hands back the
// plain *atomic.Int64 or *Histogram the hot path updates, so a request
// path whose label values are known at construction pays no lookup and no
// lock. Values only known at scrape time (queue depth, index state,
// replica health) are series backed by a callback. Families are declared
// while the owner is being constructed, before any concurrent use.
type Registry struct {
	vecs []*Vec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Vec is one metric family: its declaration plus its series, one per
// distinct tuple of label values (a family without labels has one).
type Vec struct {
	name, help, kind string
	labels           []string
	bounds           []float64 // histogram families

	mu     sync.Mutex
	series []*series // sorted by label values, the order they are exposed in
}

type series struct {
	values []string
	n      atomic.Int64
	fn     func() float64
	hist   *Histogram
}

func (r *Registry) declare(kind, name, help string, bounds []float64, labels []string) *Vec {
	if !metricNameRE.MatchString(name) {
		panic("obsv: bad metric family name " + name)
	}
	for _, v := range r.vecs {
		if v.name == name {
			panic("obsv: duplicate metric family " + name)
		}
	}
	v := &Vec{name: name, help: help, kind: kind, labels: labels, bounds: bounds}
	r.vecs = append(r.vecs, v)
	return v
}

// Counter declares a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Vec {
	return r.declare("counter", name, help, nil, labels)
}

// Gauge declares a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Vec {
	return r.declare("gauge", name, help, nil, labels)
}

// Histogram declares a histogram family over the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Vec {
	return r.declare("histogram", name, help, bounds, labels)
}

// Names lists the declared families in declaration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.vecs))
	for i, v := range r.vecs {
		out[i] = v.name
	}
	return out
}

// get resolves the series for one tuple of label values, creating it on
// first use.
func (v *Vec) get(values []string) *series {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obsv: family %s has labels %v, got values %v", v.name, v.labels, values))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.series), func(i int) bool { return slices.Compare(v.series[i].values, values) >= 0 })
	if i < len(v.series) && slices.Equal(v.series[i].values, values) {
		return v.series[i]
	}
	s := &series{values: slices.Clone(values)}
	if v.kind == "histogram" {
		s.hist = NewHistogram(v.bounds...)
	}
	v.series = slices.Insert(v.series, i, s)
	return s
}

// Int returns the handle of the counter or gauge series with the given
// label values.
func (v *Vec) Int(values ...string) *atomic.Int64 { return &v.get(values).n }

// Hist returns the handle of the histogram series with the given label
// values.
func (v *Vec) Hist(values ...string) *Histogram { return v.get(values).hist }

// Func backs the series with the given label values by a callback read at
// scrape time.
func (v *Vec) Func(fn func() float64, values ...string) { v.get(values).fn = fn }

// WritePrometheus renders every family in text exposition format (version
// 0.0.4): families in declaration order, each family's series in one group
// sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, v := range r.vecs {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", v.name, escapeHelp(v.help), v.name, v.kind)
		v.mu.Lock()
		all := slices.Clone(v.series)
		v.mu.Unlock()
		for _, s := range all {
			switch {
			case s.hist != nil:
				writeHistogram(&b, v, s)
			case s.fn != nil:
				sampleLine(&b, v.name, v.labels, s.values, "", s.fn())
			default:
				sampleLine(&b, v.name, v.labels, s.values, "", float64(s.n.Load()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram writes the cumulative bucket, sum and count series of one
// histogram.
func writeHistogram(b *strings.Builder, v *Vec, s *series) {
	snap := s.hist.Snapshot()
	var cum int64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		sampleLine(b, v.name+"_bucket", v.labels, s.values, formatFloat(bound), float64(cum))
	}
	sampleLine(b, v.name+"_bucket", v.labels, s.values, "+Inf", float64(snap.Count))
	sampleLine(b, v.name+"_sum", v.labels, s.values, "", snap.Sum)
	sampleLine(b, v.name+"_count", v.labels, s.values, "", float64(snap.Count))
}

// sampleLine writes one sample; le, when set, is appended as the bucket
// label.
func sampleLine(b *strings.Builder, name string, labels, values []string, le string, value float64) {
	b.WriteString(name)
	if le != "" {
		labels, values = append(labels[:len(labels):len(labels)], "le"), append(values[:len(values):len(values)], le)
	}
	for i, l := range labels {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		b.WriteByte(sep)
		fmt.Fprintf(b, "%s=%q", l, escapeLabel(values[i]))
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}
