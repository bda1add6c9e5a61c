// Package chaos is the differential/chaos harness for the transitive
// closure engine.
//
// It runs the paper's seven candidate algorithms (BTC, HYB, BJ, SRCH, SPN,
// JKB, JKB2) plus the dense-core bit-matrix strategy (BITM) over
// randomized DAGs and buffer configurations, cross-checking
// every answer against an in-memory BFS oracle that shares no code with the
// engine's storage or traversal machinery. Runs execute both clean and
// under seed-driven fault schedules (internal/faultdisk); under faults,
// every query must either return the exact oracle answer or fail with a
// clean, transient error — never panic, never answer wrongly.
//
// Beyond answer agreement, the harness asserts metric invariants the paper
// establishes:
//
//   - HYB with ILIMIT=0 degenerates to BTC exactly — identical page I/O,
//     tuple counts and storage-engine events (Section 4.1: the diagonal
//     block is the only difference);
//   - page I/O is monotone non-increasing in buffer size for the
//     algorithms whose page reference string is independent of the pool
//     (LRU is a stack algorithm, so more memory can only help).
//
// Every failure message embeds the Case and fault Options that reproduce
// the run; both render as flat strings so a CI log line is a local repro.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"tcstudy/internal/core"
	"tcstudy/internal/faultdisk"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/pagedisk"
)

// Candidates returns the algorithms under differential test: the paper's
// seven candidates plus the dense-core bit-matrix strategy, whose
// threshold fallback and SCC condensation ride through every oracle,
// fault and monotonicity run like any other algorithm.
func Candidates() []core.Algorithm {
	return []core.Algorithm{core.BTC, core.HYB, core.BJ, core.SRCH, core.SPN, core.JKB, core.JKB2, core.BITM}
}

// Case is one differential scenario: a seeded random DAG, a source set and
// an engine configuration. The zero values of Sources and ILIMIT mean a
// full-closure query and no diagonal block.
type Case struct {
	Seed        int64 // drives graph generation and source selection
	Nodes       int
	OutDegree   int
	Locality    int
	Sources     int // number of PTC source nodes; 0 = full closure
	BufferPages int
	ILIMIT      float64
	// Cyclic adds back arcs (a tenth of the DAG's arc count) and a handful
	// of self-arcs to the generated DAG, so the case carries multi-node
	// components, self-loop singletons and plain acyclic stretches at once.
	Cyclic bool
}

// String renders the case for replay messages.
func (c Case) String() string {
	s := fmt.Sprintf("seed=%d n=%d f=%d l=%d s=%d m=%d ilimit=%g",
		c.Seed, c.Nodes, c.OutDegree, c.Locality, c.Sources, c.BufferPages, c.ILIMIT)
	if c.Cyclic {
		s += " cyclic"
	}
	return s
}

// config is the engine configuration the case implies.
func (c Case) config() core.Config {
	return core.Config{BufferPages: c.BufferPages, ILIMIT: c.ILIMIT}
}

// materialize generates the case's graph, database and source set.
func (c Case) materialize() (*graph.Graph, *core.Database, []int32, error) {
	arcs, err := graphgen.Generate(graphgen.Params{
		Nodes: c.Nodes, OutDegree: c.OutDegree, Locality: c.Locality, Seed: c.Seed,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos: case {%s}: generate: %w", c, err)
	}
	if c.Cyclic {
		rng := rand.New(rand.NewSource(c.Seed + 2))
		for i := len(arcs) / 10; i > 0; i-- {
			from := int32(rng.Intn(c.Nodes-1) + 2)
			arcs = append(arcs, graph.Arc{From: from, To: int32(rng.Intn(int(from-1)) + 1)})
		}
		for i := 0; i < 4; i++ {
			v := int32(rng.Intn(c.Nodes) + 1)
			arcs = append(arcs, graph.Arc{From: v, To: v})
		}
	}
	g := graph.New(c.Nodes, arcs)
	var sources []int32
	if c.Sources > 0 {
		sources = graphgen.SourceSet(c.Nodes, c.Sources, c.Seed+1)
	}
	return g, core.NewDatabase(c.Nodes, arcs), sources, nil
}

// Oracle computes the successor sets of the requested sources (every node
// when sources is empty) by plain breadth-first search over an adjacency
// list. It is deliberately independent of the engine, the storage layers
// and even the graph package's bitset closure: a third implementation that
// agrees only if the answer is right.
func Oracle(n int, arcs []graph.Arc, sources []int32) map[int32][]int32 {
	adj := make([][]int32, n+1)
	for _, a := range arcs {
		adj[a.From] = append(adj[a.From], a.To)
	}
	if len(sources) == 0 {
		sources = make([]int32, n)
		for i := range sources {
			sources[i] = int32(i + 1)
		}
	}
	out := make(map[int32][]int32, len(sources))
	seen := make([]int32, n+1) // visit stamp per node; 0 = never
	var stamp int32
	queue := make([]int32, 0, n)
	for _, src := range sources {
		if _, done := out[src]; done {
			continue
		}
		stamp++
		queue = queue[:0]
		queue = append(queue, src)
		var reach []int32
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if seen[w] == stamp {
					continue
				}
				seen[w] = stamp
				reach = append(reach, w)
				queue = append(queue, w)
			}
		}
		sort.Slice(reach, func(i, j int) bool { return reach[i] < reach[j] })
		out[src] = reach
	}
	return out
}

// diff compares one computed successor map against the oracle's. A node
// absent from got is an empty successor set (flat algorithms omit
// undiscovered sink nodes).
func diff(got, want map[int32][]int32) error {
	for v, w := range want {
		g := append([]int32(nil), got[v]...)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		if len(g) != len(w) {
			return fmt.Errorf("node %d has %d successors, oracle says %d", v, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("successors of node %d differ at rank %d: got %d, oracle says %d", v, i, g[i], w[i])
			}
		}
	}
	return nil
}

// fingerprint summarizes every deterministic field of a metric record
// (times excluded). Two runs with identical fingerprints did identical
// work: same page I/O by phase, same buffer behaviour, same tuple and
// duplicate counts, same storage-engine events.
func fingerprint(m core.Metrics) string {
	return fmt.Sprintf("r=%+v c=%+v buf{h=%d m=%d e=%d} tg=%d dup=%d tc=%d stc=%d sf=%d lu=%d ac=%d am=%d magic{%d %d} store=%+v",
		m.Restructure, m.Compute,
		m.ComputeBuffer.Hits, m.ComputeBuffer.Misses, m.ComputeBuffer.Evicts,
		m.TuplesGenerated, m.Duplicates, m.DistinctTuples, m.SourceTuples,
		m.SuccessorsFetched, m.ListUnions, m.ArcsConsidered, m.ArcsMarked,
		m.MagicNodes, m.MagicArcs, m.Store)
}

// RunClean executes every candidate algorithm on the case and cross-checks
// each answer against the oracle. It also asserts the paper's two
// degeneration identities, record for record: HYB at ILIMIT=0 is BTC
// (Figure 6), and BJ on a full closure is BTC (Section 6.2).
func RunClean(c Case) error {
	g, db, sources, err := c.materialize()
	if err != nil {
		return err
	}
	want := Oracle(c.Nodes, g.Arcs(), sources)
	records := make(map[core.Algorithm]core.Metrics, len(Candidates()))
	for _, alg := range Candidates() {
		res, err := core.Run(db, alg, core.Query{Sources: sources}, c.config())
		if err != nil {
			return fmt.Errorf("chaos: case {%s}: %s failed: %w", c, alg, err)
		}
		if err := diff(res.Successors, want); err != nil {
			return fmt.Errorf("chaos: case {%s}: %s disagrees with oracle: %w", c, alg, err)
		}
		records[alg] = res.Metrics
	}
	btc := fingerprint(records[core.BTC])
	for _, same := range []struct {
		alg   core.Algorithm
		when  string
		holds bool
	}{
		{core.HYB, "at ILIMIT=0", c.ILIMIT == 0},
		{core.BJ, "on a full closure", c.Sources == 0},
	} {
		if got := fingerprint(records[same.alg]); same.holds && got != btc {
			return fmt.Errorf("chaos: case {%s}: %s %s is not BTC:\n  btc %s\n  %s %s", c, same.alg, same.when, btc, same.alg, got)
		}
	}
	return nil
}

// RunFaulted executes every candidate algorithm on the case with the
// database's store wrapped in fault injection. Each run gets a fresh
// wrapper (so its injection sequence depends only on opts, making any
// single algorithm's failure independently replayable) and must either
// return the exact oracle answer or a clean transient error.
func RunFaulted(c Case, opts faultdisk.Options) error {
	g, db, sources, err := c.materialize()
	if err != nil {
		return err
	}
	want := Oracle(c.Nodes, g.Arcs(), sources)
	for _, alg := range Candidates() {
		if err := runOneFaulted(db, alg, sources, c, opts, want); err != nil {
			return err
		}
	}
	return nil
}

// runOneFaulted runs a single algorithm under injection, translating a
// panic into a harness failure with replay coordinates.
func runOneFaulted(db *core.Database, alg core.Algorithm, sources []int32, c Case, opts faultdisk.Options, want map[int32][]int32) (err error) {
	clean := db.SwapStore(faultdisk.Wrap(db.Store(), opts))
	defer db.SwapStore(clean)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("chaos: case {%s} faults {%s}: %s PANICKED: %v", c, opts, alg, r)
		}
	}()
	res, err := core.Run(db, alg, core.Query{Sources: sources}, c.config())
	if err != nil {
		if !pagedisk.IsTransient(err) {
			return fmt.Errorf("chaos: case {%s} faults {%s}: %s returned a non-transient error: %w", c, opts, alg, err)
		}
		return nil // clean failure: the contract under faults
	}
	if err := diff(res.Successors, want); err != nil {
		return fmt.Errorf("chaos: case {%s} faults {%s}: %s survived injection but disagrees with oracle: %w", c, opts, alg, err)
	}
	return nil
}

// MonotoneIO runs every candidate algorithm at each buffer size (ascending)
// and asserts total page I/O never increases with pool growth. The page
// reference strings of the candidates are independent of the pool when no
// diagonal block is configured, and LRU is a stack algorithm, so a larger
// pool can only turn misses into hits. The case's ILIMIT is forced to 0:
// HYB's blocking deliberately adapts to M, which voids the premise.
func MonotoneIO(c Case, sizes []int) error {
	c.ILIMIT = 0
	_, db, sources, err := c.materialize()
	if err != nil {
		return err
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	prev := make(map[core.Algorithm]int64, len(Candidates()))
	prevM := 0
	for _, m := range sorted {
		c.BufferPages = m
		for _, alg := range Candidates() {
			res, err := core.Run(db, alg, core.Query{Sources: sources}, c.config())
			if err != nil {
				return fmt.Errorf("chaos: case {%s}: %s at M=%d failed: %w", c, alg, m, err)
			}
			io := res.Metrics.TotalIO()
			if last, ok := prev[alg]; ok && io > last {
				return fmt.Errorf("chaos: case {%s}: %s page I/O grew from %d at M=%d to %d at M=%d",
					c, alg, last, prevM, io, m)
			}
			prev[alg] = io
		}
		prevM = m
	}
	return nil
}
