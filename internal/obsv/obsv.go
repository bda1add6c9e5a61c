// Package obsv is the observability layer of the transitive closure stack:
// phase-span tracing for individual queries, and the hand-rolled Prometheus
// primitives (histograms, text exposition writer, exposition parser) the
// serving layer builds its /metrics endpoint from.
//
// # Tracing
//
// The paper explains every headline result by decomposing page I/O into
// per-phase counters; a Tracer turns that offline decomposition into an
// online one. A trace is a tree of spans — query → restructuring /
// computation phase → per-source expansion — and every span carries, besides wall-clock timing, the page-I/O delta
// (reads, writes, buffer hits/misses/evicts) the spanned work performed.
// Because the engine fills each span's IO from the very counter deltas it
// adds to its metric record, span I/O reconciles exactly with the record
// (asserted against the golden metric files by the core tests).
//
// Tracing is strictly opt-in and zero-cost when off: the engine consults a
// single nil check per phase, and every Tracer and Span method is safe to
// call on a nil receiver, so call sites need no guards of their own.
//
//	tr := obsv.NewTracer()
//	root := tr.Start("query", obsv.KV("algorithm", "btc"))
//	cfg.Trace = root            // the engine hangs phase spans under it
//	res, err := core.Run(db, alg, q, cfg)
//	root.Finish()
//	json.Marshal(tr.Records()) // the span tree, IO deltas and all
//
// A tracer caps the spans it will hold (DefaultMaxSpans) so a
// full-closure query over a large graph cannot balloon a trace; spans
// beyond the cap are counted in Dropped and silently elided.
//
// # Prometheus primitives
//
// prom.go provides the other half of the layer: a fixed-bucket Histogram
// safe for concurrent observation, an Exposition builder that renders
// counter/gauge/histogram families in the Prometheus text exposition
// format, and ParseExposition, a minimal format checker the tests (and any
// scrape-debugging session) can validate an endpoint's output with. No
// external dependency is involved anywhere.
package obsv

import (
	"sync"
	"time"
)

// DefaultMaxSpans bounds the spans one tracer retains. A serial query
// produces a handful of spans; per-source expansion of a large source set
// produces one per source, which is what the cap is for.
const DefaultMaxSpans = 4096

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// KV builds an Attr.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// IO is the page-I/O delta attributed to one span: disk transfers and
// buffer pool behaviour between span open and close, counted at the
// query's private buffer pool so concurrent queries cannot pollute each
// other's spans.
type IO struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Evicts int64 `json:"evicts"`
}

// Total returns reads plus writes — the paper's page-I/O cost of the span.
func (io IO) Total() int64 { return io.Reads + io.Writes }

// Add returns the element-wise sum io + other.
func (io IO) Add(other IO) IO {
	return IO{
		Reads:  io.Reads + other.Reads,
		Writes: io.Writes + other.Writes,
		Hits:   io.Hits + other.Hits,
		Misses: io.Misses + other.Misses,
		Evicts: io.Evicts + other.Evicts,
	}
}

// Tracer collects one trace: a forest of spans (normally a single root).
// All span mutation goes through the tracer's lock, so concurrent workers
// may open and finish child spans freely. The zero value is not usable;
// call NewTracer. A nil *Tracer is valid and inert.
type Tracer struct {
	mu      sync.Mutex
	max     int
	spans   int
	dropped int64
	roots   []*Span
}

// NewTracer returns an empty tracer retaining at most DefaultMaxSpans
// spans.
func NewTracer() *Tracer { return &Tracer{max: DefaultMaxSpans} }

// Start opens a root span. On a nil tracer, or once the span cap is
// reached, it returns nil (which every Span method accepts).
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, attrs)
	if s != nil {
		t.roots = append(t.roots, s)
	}
	return s
}

// newSpanLocked allocates a span under the cap. Callers hold t.mu.
func (t *Tracer) newSpanLocked(name string, attrs []Attr) *Span {
	if t.spans >= t.max {
		t.dropped++
		return nil
	}
	t.spans++
	return &Span{tracer: t, name: name, attrs: attrs, start: time.Now()}
}

// Dropped reports how many spans were elided by the span cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Records snapshots the tracer's span forest as JSON-ready records.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := make([]Record, 0, len(t.roots))
	for _, s := range t.roots {
		recs = append(recs, s.recordLocked())
	}
	return recs
}

// Span is one node of a trace: a named, timed slice of work with an
// attributed page-I/O delta and child spans. Spans are created by
// Tracer.Start and Span.Child and closed by Finish. A nil *Span is valid
// and inert, so disabled tracing costs callers a nil check at most.
type Span struct {
	tracer   *Tracer
	name     string
	attrs    []Attr
	start    time.Time
	end      time.Time
	io       IO
	children []*Span
}

// Child opens a sub-span. On a nil span, or once the tracer's span cap is
// reached, it returns nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.newSpanLocked(name, attrs)
	if c != nil {
		s.children = append(s.children, c)
	}
	return c
}

// Annotate appends attributes to the span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.attrs = append(s.attrs, attrs...)
}

// SetIO records the span's page-I/O delta, replacing any previous value.
func (s *Span) SetIO(io IO) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.io = io
}

// AddIO folds a further delta into the span's page-I/O.
func (s *Span) AddIO(io IO) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.io = s.io.Add(io)
}

// Finish closes the span, fixing its duration. Finishing twice keeps the
// first end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
}

// Record is the JSON-ready snapshot of a span tree.
type Record struct {
	Name       string         `json:"name"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	IO         IO             `json:"io"`
	Children   []Record       `json:"children,omitempty"`
}

// Record snapshots the span and its subtree.
func (s *Span) Record() Record {
	if s == nil {
		return Record{}
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.recordLocked()
}

func (s *Span) recordLocked() Record {
	r := Record{Name: s.name, Start: s.start, IO: s.io}
	end := s.end
	if end.IsZero() {
		end = time.Now() // still open: report elapsed so far
	}
	r.DurationMS = float64(end.Sub(s.start)) / float64(time.Millisecond)
	if len(s.attrs) > 0 {
		r.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			r.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		r.Children = append(r.Children, c.recordLocked())
	}
	return r
}

// Visit walks the record and its subtree in depth-first order.
func (r Record) Visit(fn func(Record)) {
	fn(r)
	for _, c := range r.Children {
		c.Visit(fn)
	}
}

// SumIO returns the summed IO of every span in the tree whose name equals
// one of the given names. Summing the phase spans ("restructure",
// "compute") of a trace reproduces the query's metric-record page I/O
// exactly.
func (r Record) SumIO(names ...string) IO {
	var sum IO
	r.Visit(func(rec Record) {
		for _, n := range names {
			if rec.Name == n {
				sum = sum.Add(rec.IO)
				break
			}
		}
	})
	return sum
}
