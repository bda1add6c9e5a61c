// Package tcstudy is a faithful reproduction of "A Performance Study of
// Transitive Closure Algorithms" (Dar and Ramakrishnan, SIGMOD 1994) as a
// reusable Go library.
//
// It provides disk-based full and partial transitive closure (reachability)
// computation over a simulated paged storage system — 2048-byte pages, a
// buffer pool with pluggable replacement policies, and a successor-list
// storage engine — together with the seven algorithms the paper studies
// (BTC, HYB, BJ, SRCH, SPN, JKB, JKB2), the complete cost-metric suite
// headed by page I/O, the synthetic DAG workload generator, and the
// rectangle model of DAG shape used to choose between algorithms.
//
// # Quick start
//
//	g, _ := tcstudy.Generate(2000, 5, 200, 1) // n, F, locality, seed
//	db := tcstudy.NewDB(g)
//	res, _ := db.Run(tcstudy.BTC, tcstudy.Query{}, tcstudy.Config{BufferPages: 20})
//	fmt.Println("page I/O:", res.Metrics.TotalIO())
//
// Every algorithm answers every directed graph. SRCH, SEMI, WARREN, SCHMITZ
// and BITM take cycles as they are; the paper's other candidates need a DAG
// and answer a cyclic graph on its strongly-connected-component
// condensation, built once with the database (paper Section 1).
package tcstudy

import (
	"tcstudy/internal/core"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/planner"
)

// Arc is one directed edge of the input graph. Nodes are numbered 1..N.
type Arc = graph.Arc

// Algorithm names one of the studied transitive closure algorithms.
type Algorithm = core.Algorithm

// The seven candidate algorithms of the study (paper Section 3).
const (
	// BTC is the basic graph-based algorithm: reverse-topological
	// expansion of flat successor lists with the marking and immediate
	// successor optimizations. The study's overall best for full closure.
	BTC = core.BTC
	// HYB is the Hybrid algorithm: BTC plus successor-list blocking
	// controlled by Config.ILIMIT. Best at ILIMIT 0, where it equals BTC.
	HYB = core.HYB
	// BJ is Jiang's BFS algorithm: BTC plus the single-parent
	// optimization for selection queries.
	BJ = core.BJ
	// SRCH expands each source node independently over the base relation;
	// the best choice for very selective queries.
	SRCH = core.SRCH
	// SPN is the Spanning Tree algorithm: successor lists carrying tree
	// structure, trading page I/O for fewer duplicates and a materialized
	// path to every successor.
	SPN = core.SPN
	// JKB is Jakobsson's Compute_Tree over a single source-clustered
	// relation; JKB2 uses the dual representation with an inverse
	// relation clustered on the destination attribute.
	JKB  = core.JKB
	JKB2 = core.JKB2
	// SEMI (iterative Seminaive evaluation) and WARREN (the matrix-based
	// Blocked Warren algorithm) are the baseline families of the paper's
	// related-work section, implemented so the study's "graph-based beats
	// iterative and matrix-based" conclusion can be re-measured.
	SEMI   = core.SEMI
	WARREN = core.WARREN
	// SCHMITZ is Schmitz's SCC-based algorithm from the paper's related
	// work: one Tarjan pass that closes components as they pop, so it
	// accepts cyclic graphs directly (a node inside a cycle reaches itself).
	SCHMITZ = core.SCHMITZ
	// BITM is the dense-core bit-matrix kernel: the input is condensed to
	// its component DAG, and when the core fits the in-memory threshold
	// (see the planner's bitmatrix estimate) its closure is computed with
	// a cache-blocked, word-parallel Warren sweep — 64 reachability bits
	// per machine word — then expanded back through SCC membership.
	// Oversized cores fall back to BTC (or Schmitz when cyclic). Accepts
	// cyclic graphs directly, like SCHMITZ.
	BITM = core.BITM
)

// Algorithms lists every implemented algorithm.
func Algorithms() []Algorithm { return core.Algorithms() }

// Config carries the system parameters of a run: buffer pool size, page and
// list replacement policies, the Hybrid blocking factor, and the ablation
// switches. The zero value gets the study defaults (M=10, LRU paging,
// smallest-list splitting).
type Config = core.Config

// Query selects a computation: an empty source set asks for the complete
// transitive closure, a non-empty one for the partial closure (all
// successors of each source node).
type Query = core.Query

// Result carries the computed successor sets and the full metric record.
type Result = core.Result

// Metrics is the paper's cost-metric suite for one run; TotalIO is the
// primary measure.
type Metrics = core.Metrics

// GraphStats is the Table 2 characterization of a DAG, including the
// rectangle model (height H, width W) of paper Section 5.3.
type GraphStats = graph.Stats

// Graph is an immutable directed graph prepared for closure computation.
type Graph struct {
	inner *graph.Graph
	arcs  []Arc
}

// NewGraph builds a graph over nodes 1..n. Duplicate arcs are removed.
// The graph may be cyclic: every algorithm answers it (see Run).
func NewGraph(n int, arcs []Arc) *Graph {
	g := graph.New(n, arcs)
	return &Graph{inner: g, arcs: g.Arcs()}
}

// Generate produces one of the study's synthetic DAGs: n nodes, per-node
// out-degree uniform on [0, 2F], arcs restricted to the next `locality`
// nodes (paper Section 5.2).
func Generate(n, outDegree, locality int, seed int64) (*Graph, error) {
	arcs, err := graphgen.Generate(graphgen.Params{
		Nodes: n, OutDegree: outDegree, Locality: locality, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return NewGraph(n, arcs), nil
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.inner.N() }

// NumArcs reports the number of distinct arcs.
func (g *Graph) NumArcs() int { return g.inner.NumArcs() }

// Arcs returns the (deduplicated, sorted) arc list.
func (g *Graph) Arcs() []Arc { return g.arcs }

// IsAcyclic reports whether the graph is a DAG.
func (g *Graph) IsAcyclic() bool {
	_, err := g.inner.TopoSort()
	return err == nil
}

// Stats computes the Table 2 characterization: arc counts, node levels,
// the rectangle model (H, W), arc localities and the closure size. The
// graph must be acyclic.
func (g *Graph) Stats() (GraphStats, error) { return g.inner.ComputeStats() }

// DB is a stored graph: the relation clustered and indexed on the source
// attribute plus the dual representation used by JKB2, on a simulated disk.
type DB struct {
	inner    *core.Database
	g        *Graph
	reversed *DB              // lazily built arc-reversed database for Predecessors
	profile  *planner.Profile // cached planner statistics
}

// NewDB stores the graph. Building the database is not charged to queries.
func NewDB(g *Graph) *DB {
	return &DB{inner: core.NewDatabase(g.N(), g.arcs), g: g}
}

// NewWeightedDB stores the graph with per-arc weights (consulted once per
// arc at build time; duplicate arcs keep their smallest weight). Weights
// live in a column file beside the relation and enable the MinWeight and
// MaxWeight path aggregates; all reachability algorithms work unchanged.
func NewWeightedDB(g *Graph, weight func(Arc) int32) (*DB, error) {
	inner, err := core.NewDatabaseWeighted(g.N(), g.arcs, weight)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, g: g}, nil
}

// Weighted reports whether the database carries arc weights.
func (db *DB) Weighted() bool { return db.inner.Weighted() }

// Run executes one query with one algorithm and returns the successor sets
// along with the full metric record. Each run starts from a cold buffer
// pool, as in the paper's experiments. On a cyclic graph every algorithm
// answers exactly (a node on a cycle or with a self-arc reaches itself):
// SRCH, SEMI, WARREN, SCHMITZ and BITM run on the graph as it is, and the
// DAG-only algorithms run on its condensation, reporting that run's
// metric record.
func (db *DB) Run(alg Algorithm, q Query, cfg Config) (*Result, error) {
	return core.Run(db.inner, alg, q, cfg)
}

// FullClosure computes the complete transitive closure.
func (db *DB) FullClosure(alg Algorithm, cfg Config) (*Result, error) {
	return db.Run(alg, Query{}, cfg)
}

// Successors computes the partial transitive closure of the given sources.
func (db *DB) Successors(alg Algorithm, sources []int32, cfg Config) (*Result, error) {
	return db.Run(alg, Query{Sources: sources}, cfg)
}

// Predecessors computes the reverse reachability of the given targets: for
// each target, every node from which it can be reached. It runs the chosen
// algorithm on the arc-reversed graph (built lazily and cached), so all
// the study's machinery — and its cost model — applies symmetrically.
func (db *DB) Predecessors(alg Algorithm, targets []int32, cfg Config) (*Result, error) {
	if db.reversed == nil {
		arcs := make([]Arc, len(db.g.arcs))
		for i, a := range db.g.arcs {
			arcs[i] = Arc{From: a.To, To: a.From}
		}
		db.reversed = NewDB(NewGraph(db.g.N(), arcs))
	}
	return db.reversed.Run(alg, Query{Sources: targets}, cfg)
}

// Request and Response form a concurrent query batch.
type Request = core.Request
type Response = core.Response

// RunConcurrent executes independent queries in parallel over the
// database, one buffer pool per query; responses arrive in request order.
// Each query's metric record is exactly what a solo run would report —
// page I/O is attributed per pool, not per shared disk. On a cyclic graph
// each request takes its algorithm's route, as in Run.
func (db *DB) RunConcurrent(reqs []Request) []Response {
	return core.RunConcurrent(db.inner, reqs)
}

// PathAggregate selects a generalized-closure aggregate (the extension of
// reachability to path problems from the paper's companion work [7]).
type PathAggregate = core.PathAggregate

// The supported aggregates: shortest path length in arcs, longest path
// length (the critical path of a DAG), the number of distinct paths
// (saturating — dense DAGs have exponentially many), and — on weighted
// databases — minimum and maximum path weight.
const (
	MinHops   = core.MinHops
	MaxHops   = core.MaxHops
	PathCount = core.PathCount
	MinWeight = core.MinWeight
	MaxWeight = core.MaxWeight
)

// PathResult carries per-source aggregate values and the metric record.
type PathResult = core.PathResult

// Paths computes a generalized transitive closure: for each source (or
// every node, when sources is empty), the aggregate value for each
// reachable node. The computation runs on the same paged framework as the
// reachability algorithms, with the marking optimization necessarily
// disabled (redundant arcs still matter for path aggregation). Path
// aggregates need a DAG: on a cyclic graph, where a path count is
// unbounded, Paths fails with an *InvalidInputError from internal/core.
func (db *DB) Paths(agg PathAggregate, sources []int32, cfg Config) (*PathResult, error) {
	return core.RunPaths(db.inner, agg, Query{Sources: sources}, cfg)
}

// Session runs a sequence of queries through one warm buffer pool. The
// paper's measurements are cold (each query starts with an empty pool);
// a session is what a library user wants for repeated queries. A storage
// error does not poison the session: the pool is reset and the next query
// runs cold against the intact database.
type Session struct {
	inner *core.Session
}

// NewSession opens a warm-buffer query session over the database.
func (db *DB) NewSession(cfg Config) (*Session, error) {
	s, err := core.NewSession(db.inner, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{inner: s}, nil
}

// Run executes one query within the session. A DAG-only algorithm on a
// cyclic graph runs on the condensation, which has a store of its own:
// that query runs cold, as in DB.Run, and leaves the session's pool as it
// was.
func (s *Session) Run(alg Algorithm, q Query) (*Result, error) {
	return s.inner.Run(alg, q)
}

// FullClosure computes the complete closure within the session.
func (s *Session) FullClosure(alg Algorithm) (*Result, error) {
	return s.Run(alg, Query{})
}

// Successors computes a partial closure within the session.
func (s *Session) Successors(alg Algorithm, sources []int32) (*Result, error) {
	return s.Run(alg, Query{Sources: sources})
}

// Save writes the database (relation pages, dual representation and
// catalogs) into a directory; OpenDB restores it. Snapshots skip relation
// construction on reopen; query cost accounting is unaffected.
func (db *DB) Save(dir string) error { return core.SaveDatabase(db.inner, dir) }

// OpenDB restores a database written by Save.
func OpenDB(dir string) (*DB, error) {
	inner, err := core.OpenDatabase(dir)
	if err != nil {
		return nil, err
	}
	arcs, err := inner.Arcs()
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, g: NewGraph(inner.N(), arcs)}, nil
}

// Graph returns the graph the database stores.
func (db *DB) Graph() *Graph { return db.g }

// SourceSet draws s distinct source nodes uniformly, as the study's
// selection queries do.
func SourceSet(n, s int, seed int64) []int32 { return graphgen.SourceSet(n, s, seed) }

// Advise picks an algorithm for a query using the paper's findings
// (Sections 6.3.4 and 9): SRCH for very selective queries; Compute_Tree
// (JKB2) for selections on narrow graphs, where its selection efficiency
// wins; BTC otherwise — including all full-closure computations, where it
// was the study's overall best. The width threshold is calibrated from
// Table 4, where the JKB2/BTC cost ratio crosses 1 near W ≈ 0.11·n.
func Advise(st GraphStats, n, numSources int) Algorithm {
	if numSources == 0 {
		return BTC
	}
	if numSources <= 5 || float64(numSources) <= 0.005*float64(n) {
		return SRCH
	}
	if float64(numSources) <= 0.1*float64(n) && st.W < 0.11*float64(n) {
		return JKB2
	}
	return BTC
}

// PlanEstimate is one algorithm's predicted page-I/O cost.
type PlanEstimate = planner.Estimate

// Plan ranks every applicable algorithm for a query with numSources source
// nodes (0 = full closure) by estimated page I/O, using cheap graph
// statistics — the cost-model counterpart to the rule-based Advise. The
// models are calibrated for ranking, not absolute prediction (the paper's
// Section 7 explains why absolute I/O prediction is treacherous). A cyclic
// graph is planned on its condensation, where the DAG-only algorithms run.
func (db *DB) Plan(numSources, bufferPages int) ([]PlanEstimate, error) {
	if db.profile == nil {
		p, err := planner.BuildProfile(db.g.inner, 16, 1)
		if err != nil {
			return nil, err
		}
		db.profile = &p
	}
	return planner.Estimates(*db.profile, numSources, bufferPages), nil
}
