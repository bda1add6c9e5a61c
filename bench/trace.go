package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into the program: name, start, end, the span that caused it, and the
// operation the whole tree belongs to. Attr carries what the program itself
// reported for that call (server elapsed_ms, engine phase times, page I/O).
type span struct {
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"` // -1 for a root
	Client int                `json:"client"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the run's epoch
	End    int64              `json:"end_ns"`
	Attr   map[string]float64 `json:"attr,omitempty"`
}

// maxKeptSpans bounds the spans one tracer keeps for the span file. Every
// operation of a traced segment is still recorded and folded into the
// per-name totals; past the bound its spans are dropped after the fold, so
// memory and the file stay bounded on the workloads that run 40k ops/s.
const maxKeptSpans = 100_000

// tracer is one goroutine's in-memory span log. Its owner switches recording
// on and off per segment, so traced and untraced segments interleave inside
// one process and the difference between them is the tracing overhead.
type tracer struct {
	epoch   time.Time
	on      bool
	client  int
	spans   []span
	totals  map[string]*selfTime
	dropped int
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: client, totals: map[string]*selfTime{}}
}

// opTrace is the span tree of one operation; the zero value records nothing.
type opTrace struct {
	t    *tracer
	root int32
}

// op opens the root span of one operation, or returns the inert zero value
// when recording is off.
func (t *tracer) op(name string, id int64) opTrace {
	if t == nil || !t.on {
		return opTrace{}
	}
	return opTrace{t: t, root: t.open(name, -1, id)}
}

func (t *tracer) open(name string, parent int32, op int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Client: t.client, Op: op, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return id
}

func (o opTrace) child(name string) int32 {
	if o.t == nil {
		return -1
	}
	return o.t.open(name, o.root, o.t.spans[o.root].Op)
}

func (o opTrace) end(id int32) {
	if o.t != nil {
		o.t.spans[id].End = int64(time.Since(o.t.epoch))
	}
}

// finish closes the root span and folds the operation into the tracer's
// per-name totals.
func (o opTrace) finish() {
	if o.t == nil {
		return
	}
	o.end(o.root)
	t := o.t
	fold(t.spans[o.root:], o.root, t.totals)
	if len(t.spans) > maxKeptSpans {
		t.dropped += len(t.spans) - int(o.root)
		t.spans = t.spans[:o.root]
	}
}

func (o opTrace) attr(id int32, key string, v float64) {
	if o.t == nil {
		return
	}
	s := &o.t.spans[id]
	if s.Attr == nil {
		s.Attr = make(map[string]float64, 4)
	}
	s.Attr[key] = v
}

// selfTime is what a span name cost once its children are taken out.
type selfTime struct {
	count int
	self  time.Duration // summed duration minus the children's
}

// fold adds one operation's spans (a root and its children, ids starting at
// base) to the per-name totals. Children of a span run one after another
// here, so the part of the parent they cover is their sum.
func fold(spans []span, base int32, into map[string]*selfTime) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent-base] += s.End - s.Start
		}
	}
	for i, s := range spans {
		st := into[s.Name]
		if st == nil {
			st = &selfTime{}
			into[s.Name] = st
		}
		st.count++
		st.self += time.Duration(s.End - s.Start - covered[i])
	}
}

// writeSpans writes every tracer's spans as JSON lines. Span ids are unique
// per client, so (client, id) identifies a span in the file.
func writeSpans(path string, tracers []*tracer) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	n := 0
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
