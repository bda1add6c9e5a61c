package main

import (
	"fmt"
	"runtime"
	"time"
)

// scale holds the sizes of a run. The benchmark always runs fullScale; the
// package test shrinks the inputs so a pass of every workload fits in
// seconds — it checks names and determinism, not speed.
type scale struct {
	nodes       int // graph size n (the paper's 2000)
	setups      int // set-ups per run; setup_s is their median
	warmOps     int // warm-up requests per client inside set-up
	soakDiv     int // divisor on the per-client operation counts of the soak
	hotShapes   int // distinct query shapes of serve_hot (must fit the cache)
	writeRate   int // mutate_mix batches per second
	finalProbes int // reach probes compared after mutate_mix quiesces
	probeDiv    int // divisor on layer-probe iteration counts and sizes
}

var fullScale = scale{
	nodes: 2000, setups: 3, warmOps: 20, soakDiv: 1, hotShapes: 64,
	writeRate: 50, finalProbes: 2000, probeDiv: 1,
}

// Fixed parameters of the load, the same on every commit.
const (
	servingF, servingL = 5, 200 // the paper's G5
	clients            = 2      // closed-loop client goroutines, one keep-alive connection each
	segments           = 5      // equal cuts of the timed window
	writeBatchOps      = 4      // ops per mutate_mix batch
	insertSpan         = 200    // mutate_mix inserts u->v with v-u <= insertSpan
	defaultSeconds     = 20
)

type config struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	sc      scale
}

func (c config) length() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warm is the part of a timed phase before its window opens, long enough
// for the new connections and the garbage collector to settle.
func (c config) warm() time.Duration { return c.length() / 20 }

// outcome is what one workload run produced.
type outcome struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"` // untraced runs only
	PerLayer  map[string]Metric `json:"per_layer"`
	Failures  []string          `json:"failures,omitempty"` // the first few, verbatim
	SpanFile  string            `json:"span_file,omitempty"`
	Spans     int               `json:"spans,omitempty"`         // written to SpanFile
	Dropped   int               `json:"spans_dropped,omitempty"` // recorded and counted, but past the per-tracer cap of the file

	layerValues map[string]float64
	tracers     []*tracer
}

func newOutcome(name string) *outcome {
	return &outcome{
		Name: name, EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{},
		layerValues: map[string]float64{},
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 8 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// seal turns the collected layer values into the declared per-layer set:
// every declared name is present (0 where the workload never reaches the
// layer) and nothing undeclared slips in.
func (o *outcome) seal() error {
	o.Correct = o.Failed == 0 && o.Attempted > 0
	o.layerValues["harness.fail_share"] = ratio(float64(o.Failed), float64(o.Attempted))
	declared := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		declared[d.Name] = true
		o.PerLayer[d.Name] = Metric{Value: o.layerValues[d.Name], Unit: d.Unit}
	}
	for name := range o.layerValues {
		if !declared[name] {
			return fmt.Errorf("%s: undeclared per-layer metric %q", o.Name, name)
		}
	}
	return nil
}

// medianSetup runs the program's set-up cfg.sc.setups times and reports the
// median, so that work moved into set-up shows and one slow start does not.
// Every set-up but the last is torn down again; the last one is measured on.
func medianSetup(cfg config, setup func() error, teardown func()) (Metric, error) {
	m := Metric{Unit: "s", Samples: cfg.sc.setups}
	for i := 0; i < cfg.sc.setups; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return m, err
		}
		m.Segments = append(m.Segments, time.Since(t0).Seconds())
	}
	m.Value = median(m.Segments)
	return m, nil
}

// liveHeap is the heap still reachable after a forced collection: what the
// program retains (databases, caches, index, mutation log), measured while
// it is still up. The serving workloads read it after the soak, a fixed
// number of operations, so it does not depend on how fast the build is.
func liveHeap() Metric {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	runtime.ReadMemStats(&ms)
	return Metric{Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MB", Samples: 1}
}

// goStats reports whole-process allocation and collector work over the
// window, harness included: it moves with the program and is cheap to read.
func goStats(out map[string]float64, before, after *runtime.MemStats, ops int64) {
	out["go.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), float64(ops))
	out["go.alloc_bytes_per_op"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(ops))
	out["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	out["go.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
