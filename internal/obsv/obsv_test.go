package obsv

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("query", KV("algorithm", "btc"))
	if root == nil {
		t.Fatal("Start returned nil on a live tracer")
	}
	restr := root.Child("restructure")
	restr.SetIO(IO{Reads: 10, Writes: 4})
	restr.Finish()
	comp := root.Child("compute")
	comp.SetIO(IO{Reads: 7, Writes: 3, Hits: 100, Misses: 10, Evicts: 6})
	src := comp.Child("source", KV("node", int32(5)))
	src.SetIO(IO{Reads: 2})
	src.Finish()
	comp.Finish()
	root.Finish()

	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d roots, want 1", len(recs))
	}
	r := recs[0]
	if r.Name != "query" || r.Attrs["algorithm"] != "btc" {
		t.Fatalf("bad root record %+v", r)
	}
	if len(r.Children) != 2 {
		t.Fatalf("got %d children, want 2", len(r.Children))
	}
	sum := r.SumIO("restructure", "compute")
	want := IO{Reads: 17, Writes: 7, Hits: 100, Misses: 10, Evicts: 6}
	if sum != want {
		t.Fatalf("SumIO = %+v, want %+v", sum, want)
	}
	if got := sum.Total(); got != 24 {
		t.Fatalf("Total = %d, want 24", got)
	}
	// Nested spans are excluded from a name-filtered sum unless named.
	if s := r.SumIO("source"); (s != IO{Reads: 2}) {
		t.Fatalf("source SumIO = %+v", s)
	}

	// The records marshal cleanly (the tcquery -trace / /debug/traces shape).
	if _, err := json.Marshal(recs); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestNilSafety pins the zero-cost-when-disabled contract: every method is
// a no-op on nil receivers, so call sites need no guards.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("query")
	if s != nil {
		t.Fatal("nil tracer started a span")
	}
	c := s.Child("phase", KV("k", 1))
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetIO(IO{Reads: 1})
	s.AddIO(IO{Writes: 1})
	s.Annotate(KV("a", "b"))
	s.Finish()
	if rec := s.Record(); rec.Name != "" {
		t.Fatalf("nil span record = %+v", rec)
	}
	if tr.Records() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer reported state")
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("query")
	made := 1
	for i := 0; i < DefaultMaxSpans+10; i++ {
		if root.Child("source") != nil {
			made++
		}
	}
	if made != DefaultMaxSpans {
		t.Fatalf("made %d spans, want %d", made, DefaultMaxSpans)
	}
	if d := tr.Dropped(); d != 11 {
		t.Fatalf("dropped = %d, want 11", d)
	}
}

// TestConcurrentChildren exercises goroutines hanging spans under one
// parent at the same time: the tracer's lock keeps the tree consistent.
func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("query")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := root.Child("worker", KV("worker", w))
			for i := 0; i < 16; i++ {
				c := ws.Child("compute")
				c.AddIO(IO{Reads: 1})
				c.Finish()
			}
			ws.Finish()
		}(w)
	}
	wg.Wait()
	root.Finish()
	rec := tr.Records()[0]
	if len(rec.Children) != 8 {
		t.Fatalf("got %d workers, want 8", len(rec.Children))
	}
	if sum := rec.SumIO("compute"); sum.Reads != 8*16 {
		t.Fatalf("summed reads = %d, want %d", sum.Reads, 8*16)
	}
}

func TestOpenSpanReportsElapsed(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("query")
	time.Sleep(time.Millisecond)
	if rec := s.Record(); rec.DurationMS <= 0 {
		t.Fatalf("open span duration = %v, want > 0", rec.DurationMS)
	}
	s.Finish()
	rec := s.Record()
	time.Sleep(time.Millisecond)
	if again := s.Record(); again.DurationMS != rec.DurationMS {
		t.Fatal("finished span duration not frozen")
	}
}
