package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
)

// mutate_mix runs writes beside reads on the mutable service. Client 0 is a
// closed-loop reader of GET /v1/reach; client 1 is a paced writer that sends
// POST /v1/arc batches on a fixed schedule and times each from when it was
// due, so a stall shows as latency on the writes behind it, not as less load.

// mutator generates the write stream and tracks the live arc set, so every
// op it emits is effective (a delete of a live arc, an insert of an absent
// one) and the graph stays a DAG of steady size: inserts only go forward,
// u -> v with v-u <= insertSpan, and deletes match them one for one on
// average. Uniform random endpoints would not do: they merge the graph into
// one component and grow it without bound.
type mutator struct {
	n    int
	rng  *rand.Rand
	live []graph.Arc
	at   map[graph.Arc]int // position in live
	out  [][]int32         // adjacency of the live set, for classifying deletes

	deletes, shrinking int
	seen               []int32 // BFS scratch
	tick               int32
}

func newMutator(n int, arcs []graph.Arc, rng *rand.Rand) *mutator {
	m := &mutator{n: n, rng: rng, at: make(map[graph.Arc]int, len(arcs)), out: make([][]int32, n+1), seen: make([]int32, n+1)}
	for _, a := range arcs {
		m.add(a)
	}
	return m
}

func (m *mutator) add(a graph.Arc) {
	m.at[a] = len(m.live)
	m.live = append(m.live, a)
	m.out[a.From] = append(m.out[a.From], a.To)
}

func (m *mutator) remove(a graph.Arc) {
	i, last := m.at[a], len(m.live)-1
	m.live[i] = m.live[last]
	m.at[m.live[i]] = i
	m.live = m.live[:last]
	delete(m.at, a)
	o := m.out[a.From]
	for j, v := range o {
		if v == a.To {
			o[j] = o[len(o)-1]
			m.out[a.From] = o[:len(o)-1]
			break
		}
	}
}

// reaches is a plain search over the live set; forward arcs only, so it
// never looks below src.
func (m *mutator) reaches(src, dst int32) bool {
	m.tick++
	stack := []int32{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range m.out[v] {
			if w == dst {
				return true
			}
			if w < dst && m.seen[w] != m.tick {
				m.seen[w] = m.tick
				stack = append(stack, w)
			}
		}
	}
	return false
}

// batch emits the next writeBatchOps ops, half deletes and half inserts in
// expectation.
func (m *mutator) batch() []dynamic.Op {
	ops := make([]dynamic.Op, 0, writeBatchOps)
	for len(ops) < writeBatchOps {
		if m.rng.Intn(2) == 0 && len(m.live) > 0 {
			a := m.live[m.rng.Intn(len(m.live))]
			m.remove(a)
			m.deletes++
			if !m.reaches(a.From, a.To) {
				m.shrinking++ // the closure lost a pair: the service must rebuild
			}
			ops = append(ops, dynamic.Op{Op: dynamic.OpDelete, From: a.From, To: a.To})
			continue
		}
		u := int32(1 + m.rng.Intn(m.n-1))
		v := u + 1 + int32(m.rng.Intn(min(insertSpan, m.n-int(u))))
		a := graph.Arc{From: u, To: v}
		if _, ok := m.at[a]; ok {
			continue
		}
		m.add(a)
		ops = append(ops, dynamic.Op{Op: dynamic.OpInsert, From: u, To: v})
	}
	return ops
}

// Per-client operation counts of the mutate_mix soak.
const (
	soakReads  = 10000
	soakWrites = 100
)

// pacedWriter sends one pre-generated batch every interval, whether or not
// the previous one was slow, until the deadline.
func pacedWriter(batches [][]dynamic.Op, interval time.Duration) func(c *client, until time.Time) {
	return func(c *client, until time.Time) {
		t0 := time.Now()
		for i, b := range batches {
			due := t0.Add(time.Duration(i) * interval)
			if !due.Before(until) {
				return
			}
			time.Sleep(time.Until(due))
			c.exec(&op{kind: opArc, class: 1, batch: b}, due)
		}
	}
}

func runMutateMix(cfg config) (*outcome, error) {
	out := newOutcome("mutate_mix")
	spec := fleetSpec{index: true, mutable: true, replicas: 1}
	or, err := servingOracle(cfg)
	if err != nil {
		return nil, err
	}
	// Set-up warms with reads only, so the graph the window starts from is
	// the generated one on every set-up.
	warm := func(client int) stream {
		rng := clientRand(cfg.seed, client+clients, 5)
		return func() op { return randomReach(rng, cfg.sc.nodes) }
	}
	var f *fleet
	setup, err := medianSetup(cfg, func() (err error) {
		f, err = setUpServing(cfg, spec, or, nil, warm)
		return err
	}, func() { f.close() })
	if err != nil {
		return nil, err
	}
	defer f.close()

	// The whole write stream is generated before the first write: its
	// length is fixed by the soak and the schedule, not by how fast the
	// program is.
	interval := time.Second / time.Duration(cfg.sc.writeRate)
	soakBatches := max(soakWrites/cfg.sc.soakDiv, 1)
	total := soakBatches + int((cfg.warm()+cfg.length())/interval) + 1
	gen := newMutator(f.n, f.arcs, clientRand(cfg.seed, 1, 6))
	startArcs := len(gen.live)
	batches := make([][]dynamic.Op, total)
	for i := range batches {
		batches[i] = gen.batch()
	}
	var ack atomic.Int64
	noOracle := func() *checker { return nil } // mid-mutation answers are checked for freshness only

	// Soak: a fixed number of reads beside a fixed number of unpaced
	// writes, then quiesce, so the heap is read in a defined state.
	soakReader, wrote := clientRand(cfg.seed, 2*clients, 7), 0
	drive(f.url, noOracle, []func(*client, time.Time){
		counted(func() op { return randomReach(soakReader, cfg.sc.nodes) }, max(soakReads/cfg.sc.soakDiv, 1)),
		counted(func() op { wrote++; return op{kind: opArc, class: 1, batch: batches[wrote-1]} }, soakBatches),
	}, &ack, 0, 0, 0, false).into(out)
	if err := f.dyn.RebuildNow(); err != nil {
		return nil, fmt.Errorf("quiesce after the soak: %w", err)
	}
	heap := liveHeap()

	reader := clientRand(cfg.seed, 0, 7)
	loops := []func(*client, time.Time){
		closedLoop(func() op { return randomReach(reader, cfg.sc.nodes) }),
		pacedWriter(batches[soakBatches:], interval),
	}
	rebuildsBefore := f.dyn.Stats().Rebuilds
	// The typical latency of both classes is the mean here, not the median.
	// Write latency from due time runs from 0.2 ms to 30 ms and read latency
	// from an index probe to a search of the live graph, each with its
	// steepest part at the median, which therefore moves by a third between
	// equal runs.
	p, nseg := timed(cfg, out, f.url, noOracle, loops, &ack, meanMS)

	// Quiesce, then hold the service to the generator's final live set.
	if err := f.dyn.RebuildNow(); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	st := f.dyn.Stats()
	sent := int(st.Seq)
	final := newMutator(f.n, f.arcs, clientRand(cfg.seed, 1, 6))
	for i := 0; i < sent; i++ {
		final.batch()
	}
	out.Attempted++
	if st.NumArcs != len(final.live) {
		out.fail("after %d batches the service holds %d arcs, the generator's live set %d", sent, st.NumArcs, len(final.live))
	}
	finalOracle := newOracle(f.n, final.live)
	probe := newClient(0, f.url, finalOracle.checker(), time.Now())
	prng := clientRand(cfg.seed, 0, 8)
	for i := 0; i < cfg.sc.finalProbes; i++ {
		o := randomReach(prng, cfg.sc.nodes)
		probe.exec(&o, time.Time{})
	}
	probe.hc.CloseIdleConnections()
	out.Attempted += probe.attempted
	out.Failed += probe.failed
	out.Failures = append(out.Failures, probe.failures...)

	L := out.layerValues
	L["index.bytes_per_node_serving"] = f.dyn.Index().ComputeStats().BytesPerNode
	L["dynamic.rebuilds"] = float64(st.Rebuilds - rebuildsBefore)
	L["dynamic.overlay_share"] = ratio(float64(p.cnt.overlays), float64(p.cnt.reaches))
	L["dynamic.shrinking_delete_share"] = ratio(float64(final.shrinking), float64(final.deletes))
	L["dynamic.pending_max"] = float64(p.cnt.pendingMax)
	L["dynamic.backlog_rejects"] = float64(p.cnt.rejects)
	L["dynamic.mutations_applied"] = float64(p.cnt.applied)
	L["dynamic.arc_drift_pct"] = 100 * ratio(float64(st.NumArcs-startArcs), float64(startArcs))
	late := append([]int64(nil), p.lateNS...)
	slices.Sort(late)
	L["harness.writer_late_ms"] = percentile(late, 0.99)
	if !cfg.trace {
		endToEndServing(out, setup, heap, p, nseg, meanMS)
	}
	return out, nil
}
