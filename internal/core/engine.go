package core

import (
	"fmt"
	"sync"
	"time"

	"tcstudy/internal/bitset"
	"tcstudy/internal/buffer"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/obsv"
	"tcstudy/internal/pagedisk"
	"tcstudy/internal/relation"
	"tcstudy/internal/slist"
)

// Algorithm names one of the studied transitive closure algorithms.
type Algorithm string

// The candidate algorithms of the study (Section 3).
const (
	BTC  Algorithm = "btc"  // basic graph-based algorithm [12]
	HYB  Algorithm = "hyb"  // Hybrid with successor-list blocking [2]
	BJ   Algorithm = "bj"   // Jiang's BFS with the single-parent optimization [18]
	SRCH Algorithm = "srch" // per-source search [14, 15]
	SPN  Algorithm = "spn"  // Dar/Jagadish spanning tree algorithm [6]
	JKB  Algorithm = "jkb"  // Jakobsson's Compute_Tree, single relation [15]
	JKB2 Algorithm = "jkb2" // Compute_Tree over the dual representation [15]

	// The baseline families the paper's related-work section reports the
	// graph-based algorithms beating (Section 8): the iterative Seminaive
	// evaluation and the matrix-based Blocked Warren algorithm.
	SEMI   Algorithm = "seminaive"
	WARREN Algorithm = "warren"

	// SCHMITZ is Schmitz's SCC-based algorithm ([23], studied against BTC
	// in [12]): one Tarjan pass closes components as they pop, handling
	// cyclic graphs natively.
	SCHMITZ Algorithm = "schmitz"

	// BITM is the dense-core bit-matrix strategy: the SCC condensation is
	// closed by the in-memory word-parallel kernel (internal/bitmatrix)
	// when it fits the size/density threshold, with answers expanded back
	// through component membership; oversized condensations fall back to
	// BTC (Schmitz when cyclic). Cyclic-native, like SCHMITZ.
	BITM Algorithm = "bitmatrix"
)

// strategy is one row of the algorithm table.
type strategy struct {
	alg Algorithm
	run func(*engine) error
	// needsDAG reports whether the strategy is exact only on acyclic input:
	// the list-closure and Compute_Tree families take a reverse DFS
	// post-order for a topological one (restructure.go). The others search,
	// iterate to a fixpoint or condense, and are exact on any digraph.
	// On a cyclic database a needsDAG strategy runs on the condensation
	// (see Request.run).
	needsDAG bool
}

// strategies is the one place the set of algorithms is written down, in
// the order Algorithms reports them: the paper's seven candidates, the two
// related-work baselines, and this repository's additions (Schmitz and
// the dense-core bit-matrix strategy). BTC, HYB, BJ and SPN are
// configurations of the list-closure driver (closure.go).
var strategies = [...]strategy{
	{alg: BTC, run: listClosure(specBTC), needsDAG: true},
	{alg: HYB, run: listClosure(specHYB), needsDAG: true},
	{alg: BJ, run: listClosure(specBJ), needsDAG: true},
	{alg: SRCH, run: (*engine).runSRCH},
	{alg: SPN, run: listClosure(specSPN), needsDAG: true},
	{alg: JKB, run: func(e *engine) error { return e.runJKB(false) }, needsDAG: true},
	{alg: JKB2, run: func(e *engine) error { return e.runJKB(true) }, needsDAG: true},
	{alg: SEMI, run: (*engine).runSeminaive},
	{alg: WARREN, run: (*engine).runWarren},
	{alg: SCHMITZ, run: (*engine).runSchmitz},
	{alg: BITM, run: (*engine).runBitMatrix},
}

// strategyOf finds an algorithm's row; nil when there is none.
func strategyOf(alg Algorithm) *strategy {
	for i := range strategies {
		if strategies[i].alg == alg {
			return &strategies[i]
		}
	}
	return nil
}

// Algorithms lists every implemented algorithm.
func Algorithms() []Algorithm {
	algs := make([]Algorithm, len(strategies))
	for i, s := range strategies {
		algs[i] = s.alg
	}
	return algs
}

// Config carries the system parameters of an experiment (Section 5.1).
type Config struct {
	// BufferPages is M, the buffer pool size in pages (10, 20 or 50 in the
	// study). Must be at least 4.
	BufferPages int
	// PagePolicy is the page replacement policy name (default "lru").
	PagePolicy string
	// ListPolicy is the list replacement policy name (default "smallest").
	ListPolicy string
	// ILIMIT is the fraction of the buffer pool reserved for the Hybrid
	// algorithm's diagonal block (Figure 6). Zero makes HYB identical to
	// BTC, the configuration the paper found best.
	ILIMIT float64
	// DisableMarking turns off the marking optimization (ablation).
	DisableMarking bool
	// ChargeIndexIO routes relation probes through the disk-resident
	// B+-tree, charging index interior pages — the cost the paper's model
	// treats as free (ablation).
	ChargeIndexIO bool
	// DisableClustering turns off inter-list clustering (ablation).
	DisableClustering bool
	// Trace, when non-nil, is the parent span the engine hangs its phase
	// spans under: "restructure" and "compute" spans carrying the exact
	// page-I/O deltas of the metric record, with per-source expansion spans
	// (SRCH) nested inside.
	// Tracing costs one nil check per phase when disabled. The field never
	// participates in behaviour, caching or persistence — two runs differing
	// only in Trace perform identical work.
	Trace *obsv.Span
}

func (c Config) withDefaults() Config {
	if c.BufferPages == 0 {
		c.BufferPages = 10
	}
	if c.PagePolicy == "" {
		c.PagePolicy = "lru"
	}
	if c.ListPolicy == "" {
		c.ListPolicy = "smallest"
	}
	return c
}

// Database is the stored input: the graph relation clustered and indexed on
// the source attribute, and the dual (inverse) relation clustered and
// indexed on the destination attribute used by JKB2 (Section 4.1). Both
// live on one page store — normally the simulated disk, optionally wrapped
// with fault injection via SwapStore; building them is not charged to
// queries.
type Database struct {
	disk pagedisk.Store
	rel  *relation.Relation
	inv  *relation.Relation
	// wcol is the arc-weight column of a weighted database (nil for the
	// paper's unweighted reachability databases); used by the weighted
	// generalized-closure aggregates.
	wcol *relation.WeightColumn
	// btree/invBtree are disk-resident clustered indexes used when a run
	// asks for index interior I/O to be charged (Config.ChargeIndexIO);
	// the default probes use the paper's free in-memory sparse index.
	btree    *relation.BTree
	invBtree *relation.BTree
	n        int
	// acyclic records whether the stored graph is a DAG, learnt once when
	// the database is built or opened and never charged to a query.
	acyclic bool
	// cond is a cyclic database's condensation (nil on a DAG), built beside
	// acyclic by learnCycles.
	cond *condensation

	// Dataset fingerprint, computed lazily on first use (the stored
	// relation is immutable once built). See Fingerprint.
	fpOnce sync.Once
	fp     uint64
	fpErr  error
}

// NewDatabase stores the arcs of a graph over nodes 1..n.
func NewDatabase(n int, arcs []graph.Arc) *Database {
	disk := pagedisk.New()
	ts := graphgen.Tuples(arcs)
	db := &Database{
		disk: disk,
		rel:  relation.Build(disk, "graph", ts),
		inv:  relation.BuildInverse(disk, "graph-inverse", ts),
		n:    n,
	}
	db.learnCycles(arcs)
	db.buildIndexes()
	// The base relations and indexes are complete and immutable from here
	// on: seal them so concurrent queries read them lock-free and copy-free.
	disk.SealAll()
	return db
}

// condensation is a cyclic database's strongly connected components and
// the database of their acyclic condensation, on a page store of its own:
// the DAG-only strategies answer a cyclic graph there, as the paper's
// Section 1 prescribes.
type condensation struct {
	graph.Components
	db *Database
}

// learnCycles records whether the arcs form a DAG and, when they do not,
// builds the condensation's database. Like the rest of construction, it is
// never charged to a query.
func (db *Database) learnCycles(arcs []graph.Arc) {
	db.acyclic = graph.IsDAG(db.n, arcs)
	if !db.acyclic {
		c := graph.New(db.n, arcs).Condense()
		db.cond = &condensation{Components: c.Components, db: NewDatabase(c.K(), c.DAG.Arcs())}
	}
}

// buildIndexes bulk-loads the disk-resident B+-trees (database
// construction, not charged to queries).
func (db *Database) buildIndexes() {
	var err error
	if db.btree, err = relation.BuildBTree(db.disk, "graph-btree", db.rel); err != nil {
		panic(fmt.Sprintf("core: btree build failed: %v", err))
	}
	if db.invBtree, err = relation.BuildBTree(db.disk, "graph-inverse-btree", db.inv); err != nil {
		panic(fmt.Sprintf("core: inverse btree build failed: %v", err))
	}
}

// NewDatabaseWeighted stores a weighted graph: weight is consulted once
// per arc at build time and the weights land in a column file aligned with
// the relation. All reachability algorithms work unchanged; the weighted
// path aggregates (MinWeight, MaxWeight) become available.
func NewDatabaseWeighted(n int, arcs []graph.Arc, weight func(graph.Arc) int32) (*Database, error) {
	disk := pagedisk.New()
	ts := graphgen.Tuples(arcs)
	ws := make([]int32, len(arcs))
	for i, a := range arcs {
		ws[i] = weight(a)
	}
	rel, wcol, err := relation.BuildWeighted(disk, "graph", ts, ws)
	if err != nil {
		return nil, err
	}
	db := &Database{
		disk: disk,
		rel:  rel,
		inv:  relation.BuildInverse(disk, "graph-inverse", ts),
		wcol: wcol,
		n:    n,
	}
	db.learnCycles(arcs)
	db.buildIndexes()
	disk.SealAll()
	return db, nil
}

// Weighted reports whether the database carries arc weights.
func (db *Database) Weighted() bool { return db.wcol != nil }

// Store exposes the page store queries run against.
func (db *Database) Store() pagedisk.Store { return db.disk }

// SwapStore replaces the database's page store and returns the previous
// one. Its intended use is layering fault injection over an already-built
// database (wrap the current store with faultdisk, swap it in, and swap
// the original back to return to clean operation); the replacement must
// present the same files and pages. A cyclic database's condensation has
// its own store, which the swap leaves alone. Swapping while queries are
// in flight is the caller's race to avoid.
func (db *Database) SwapStore(s pagedisk.Store) pagedisk.Store {
	old := db.disk
	db.disk = s
	return old
}

// N reports the number of nodes in the stored graph.
func (db *Database) N() int { return db.n }

// NumArcs reports the number of stored (distinct) arcs.
func (db *Database) NumArcs() int { return db.rel.NumTuples() }

// Relation exposes the forward relation (for tools and tests).
func (db *Database) Relation() *relation.Relation { return db.rel }

// Arcs reads the stored arc list back out of the relation (e.g. after
// OpenDatabase). The scan is a catalog operation and is not charged to any
// query: disk statistics are reset afterwards.
func (db *Database) Arcs() ([]graph.Arc, error) {
	pol, err := buffer.NewPolicy("lru", 8)
	if err != nil {
		return nil, err
	}
	pool := buffer.New(db.disk, 8, pol)
	arcs := make([]graph.Arc, 0, db.rel.NumTuples())
	if err := db.rel.Scan(pool, func(t relation.Tuple) bool {
		arcs = append(arcs, graph.Arc{From: t.Key, To: t.Val})
		return true
	}); err != nil {
		return nil, err
	}
	db.disk.ResetStats()
	return arcs, nil
}

// Query specifies a transitive closure computation. An empty source set
// requests the complete transitive closure (CTC); otherwise the partial
// transitive closure (PTC) of the given source nodes is computed.
type Query struct {
	Sources []int32
}

// IsFull reports whether the query asks for the complete closure.
func (q Query) IsFull() bool { return len(q.Sources) == 0 }

// Result is the outcome of a run: the metrics record and the computed
// successor sets (for CTC, of every node; for PTC, of the source nodes).
// Successor extraction happens after measurement ends and is not charged.
type Result struct {
	Metrics    Metrics
	Successors map[int32][]int32
}

func fileID(id int) pagedisk.FileID { return pagedisk.FileID(id) }

// InvalidInputError reports a request the engine refuses because of its
// own inputs: an unknown algorithm or policy, a buffer pool too small, a
// source outside the graph, a path aggregate on a cyclic graph. A serving
// tier maps it to a client error.
type InvalidInputError struct{ Reason string }

func (e *InvalidInputError) Error() string { return "core: " + e.Reason }

func invalidInput(format string, args ...any) error {
	return &InvalidInputError{Reason: fmt.Sprintf(format, args...)}
}

// InternalError reports a panic inside one query's execution, recovered so
// that it fails that query alone (see runOwned). A serving tier maps it to
// a server error.
type InternalError struct {
	Alg   Algorithm
	Panic any // the recovered value
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("core: %s: internal error: %v", e.Alg, e.Panic)
}

// validate checks the system parameters every entry point depends on.
func (c Config) validate() error {
	if c.BufferPages < 4 {
		return invalidInput("buffer pool must have at least 4 pages, got %d", c.BufferPages)
	}
	if _, err := buffer.NewPolicy(c.PagePolicy, c.BufferPages); err != nil {
		return invalidInput("%v", err)
	}
	if _, err := slist.NewListPolicy(c.ListPolicy); err != nil {
		return invalidInput("%v", err)
	}
	return nil
}

// normalizeSources range-checks a source list against the database and
// drops repeated sources (see DedupSources).
func (db *Database) normalizeSources(sources []int32) ([]int32, error) {
	for _, s := range sources {
		if s < 1 || s > int32(db.n) {
			return nil, invalidInput("source node %d outside 1..%d", s, db.n)
		}
	}
	return DedupSources(sources), nil
}

// DedupSources drops repeated sources, keeping each first occurrence in
// place: the answer is a per-source map, so multiplicity cannot matter,
// but the order of the survivors feeds page I/O and must not move. The
// input is returned as is when it holds no repeat.
func DedupSources(sources []int32) []int32 {
	if len(sources) < 2 {
		return sources // every reach probe and single-source query: no set to build
	}
	seen := make(map[int32]struct{}, len(sources))
	for i, s := range sources {
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			continue
		}
		out := append([]int32(nil), sources[:i]...)
		for _, s := range sources[i+1:] {
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				out = append(out, s)
			}
		}
		return out
	}
	return sources
}

// Validate is the one validation and normalisation entry of the engine:
// it checks the request against the database and returns it as it will
// execute — configuration defaults filled in, repeated sources dropped —
// so a caller that keys a cache or splits work on the request sees
// exactly the source set the engine expands. Failures are
// *InvalidInputError.
func (r Request) Validate(db *Database) (Request, error) {
	if strategyOf(r.Alg) == nil {
		return r, invalidInput("unknown algorithm %q (have %v)", r.Alg, Algorithms())
	}
	return r.validateInputs(db)
}

// validateInputs is Validate without the algorithm lookup, for RunPaths,
// whose aggregates are not rows of the strategy table.
func (r Request) validateInputs(db *Database) (Request, error) {
	r.Cfg = r.Cfg.withDefaults()
	if err := r.Cfg.validate(); err != nil {
		return r, err
	}
	var err error
	r.Query.Sources, err = db.normalizeSources(r.Query.Sources)
	return r, err
}

// Run executes one query with one algorithm under the given configuration.
func Run(db *Database, alg Algorithm, q Query, cfg Config) (*Result, error) {
	r, err := Request{Alg: alg, Query: q, Cfg: cfg}.Validate(db)
	if err != nil {
		return nil, err
	}
	// Each run measures from a cold buffer pool and a clean counter state,
	// exactly as in the paper's per-query experiments. Temporary files the
	// run creates (successor lists, trees, sort runs) are released when it
	// finishes — the answer has been materialized by then.
	db.disk.ResetStats()
	return r.run(db)
}

// run executes a validated request on the calling goroutine with a private
// buffer pool and private temporary files: the one path under Run, RunOne
// and RunConcurrent. A DAG-only strategy on a cyclic database runs on its
// condensation.
func (r Request) run(db *Database) (*Result, error) {
	st := strategyOf(r.Alg)
	if st.needsDAG && !db.acyclic {
		return db.cond.run(r)
	}
	e, err := runOwned(db, r, st.run)
	if err != nil {
		return nil, err
	}
	return e.result(), nil
}

// run answers a validated request over the condensation: the sources map
// to their components (a full closure stays one, over the components), the
// strategy runs on the component DAG, and each source's row expands back
// to nodes with Components.Expand. The metric record is the condensed
// run's.
func (c *condensation) run(r Request) (*Result, error) {
	sources := r.Query.Sources
	if r.Query.IsFull() {
		sources = make([]int32, len(c.Component)-1)
		for i := range sources {
			sources[i] = int32(i + 1)
		}
	} else {
		comps := make([]int32, len(sources))
		for i, s := range sources {
			comps[i] = c.Component[s]
		}
		r.Query.Sources = DedupSources(comps)
	}
	res, err := r.run(c.db)
	if err != nil {
		return nil, err
	}
	answer := make(map[int32][]int32, len(sources))
	expanded := make(map[int32][]int32) // the members of a component share its expansion
	reached := bitset.New(c.K() + 1)
	for _, s := range sources {
		cs := c.Component[s]
		succ, done := expanded[cs]
		if !done {
			reached.Clear()
			for _, x := range res.Successors[cs] {
				reached.Add(x)
			}
			succ = c.Expand(s, reached.Words())
			expanded[cs] = succ
		}
		answer[s] = succ
	}
	res.Successors = answer
	return res, nil
}

// engine is the per-run state shared by the algorithm implementations.
type engine struct {
	db         *Database
	cfg        Config
	pool       *buffer.Pool
	q          Query
	met        Metrics
	listPolicy slist.ListPolicy

	// Restructuring-phase outputs (see restructure.go).
	store      *slist.Store // successor lists / trees, expanded in place
	order      []int32      // magic-graph nodes in topological order
	topoPos    []int32      // node -> position in order; -1 if outside
	levels     []int32      // node levels within the magic graph
	childCount []int32      // immediate-successor count per node
	isSource   []bool
	posCount   []int32 // SPN: result entries (positive values) per tree

	// Weighted generalized closure support: when needWeights is set the
	// restructuring probes also read the weight column into adjW.
	needWeights bool
	adjW        [][]int32

	// answer collects the final successor sets for validation; it is
	// filled after metrics are frozen (flat algorithms) or as a free
	// by-product (JKB), never with charged I/O beyond what the paper's
	// algorithms perform.
	answer map[int32][]int32

	// phaseSpan is the open span of the phase currently under timedPhase
	// (nil when tracing is off), so algorithms can nest finer-grained spans
	// — SRCH's per-source expansions — inside it.
	phaseSpan *obsv.Span
}

// execute is the one engine constructor: it builds the per-run state of a
// validated request on the given pool and runs it. Run, Session.Run and
// RunPaths all come through here.
func execute(db *Database, pool *buffer.Pool, r Request, run func(*engine) error) (*engine, error) {
	listPol, err := slist.NewListPolicy(r.Cfg.ListPolicy)
	if err != nil {
		return nil, err
	}
	e := &engine{
		db:         db,
		cfg:        r.Cfg,
		pool:       pool,
		q:          r.Query,
		met:        Metrics{Algorithm: r.Alg},
		listPolicy: listPol,
	}
	if err := run(e); err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Alg, err)
	}
	if e.store != nil {
		e.met.Store = e.store.Stats()
	}
	return e, nil
}

// result packages a finished run.
func (e *engine) result() *Result {
	return &Result{Metrics: e.met, Successors: e.answer}
}

// sources returns the effective source set: the query's sources for PTC, or
// every node for CTC (the paper treats CTC as s = n, cf. Figure 14 where
// the curves converge at s = 2000).
func (e *engine) sources() []int32 {
	if !e.q.IsFull() {
		return e.q.Sources
	}
	all := make([]int32, e.db.n)
	for i := range all {
		all[i] = int32(i + 1)
	}
	return all
}

// timedPhase runs fn, attributing elapsed time and I/O to the given phase.
// Under tracing it additionally opens a phase span whose I/O delta is set
// from the very same counter difference added to the metric record, which
// is what makes span I/O reconcile byte-exactly with the record.
func (e *engine) timedPhase(restructure bool, fn func() error) error {
	var sp *obsv.Span
	if e.cfg.Trace != nil {
		name := "compute"
		if restructure {
			name = "restructure"
		}
		sp = e.cfg.Trace.Child(name, obsv.KV("algorithm", string(e.met.Algorithm)))
		e.phaseSpan = sp
	}
	snap := snapshot(e.pool)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	io, buf := snap.delta(e.pool)
	if sp != nil {
		sp.SetIO(obsv.IO{Reads: buf.Reads, Writes: buf.Writes,
			Hits: buf.Hits, Misses: buf.Misses, Evicts: buf.Evicts})
		sp.Finish()
		e.phaseSpan = nil
	}
	if restructure {
		e.met.Restructure.Reads += io.Reads
		e.met.Restructure.Writes += io.Writes
		e.met.RestructureTime += elapsed
	} else {
		e.met.Compute.Reads += io.Reads
		e.met.Compute.Writes += io.Writes
		e.met.ComputeTime += elapsed
		e.met.ComputeBuffer.Hits += buf.Hits
		e.met.ComputeBuffer.Misses += buf.Misses
		e.met.ComputeBuffer.Evicts += buf.Evicts
	}
	return err
}
