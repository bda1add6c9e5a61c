// Package planner estimates the page-I/O cost of each transitive closure
// algorithm from cheap graph statistics and ranks the candidates — the
// query-optimizer layer the paper gestures at ("while our model is not
// sophisticated enough to allow a query optimizer to choose…", Section 1)
// built on top of its own findings.
//
// The estimates are heuristic cost models with constants calibrated
// against this repository's full-scale measurements (EXPERIMENTS.md); they
// are built for *ranking* candidates, not for absolute prediction — the
// paper's own Section 7 warns how treacherous absolute I/O prediction is.
// The models consume only statistics obtainable without computing a
// closure: node and arc counts, the rectangle model (one DFS), and a
// sampled reachability estimate.
package planner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tcstudy/internal/bitmatrix"
	"tcstudy/internal/core"
	"tcstudy/internal/graph"
)

// Profile is the cheap statistical characterization the models consume.
type Profile struct {
	N         int     // nodes
	Arcs      int     // |G|
	H         float64 // rectangle-model height (mean node level)
	W         float64 // rectangle-model width  (|G| / H)
	AvgDegree float64 // |G| / N
	// Reach is the estimated mean number of successors per node, from a
	// BFS sample; with it, closure sizes are estimated without computing
	// any closure.
	Reach float64
	// CondNodes/CondArcs are the SCC condensation's node and distinct arc
	// counts, and Density its |A|/n² — the statistics the bit-matrix
	// kernel's selection threshold consumes. For an acyclic graph
	// CondNodes == N.
	CondNodes int
	CondArcs  int
	Density   float64
}

// BuildProfile computes the profile: one full DFS for the rectangle model
// plus `samples` in-memory reachability probes (both cheap relative to any
// closure computation). The rectangle model is defined on DAGs only, so a
// cyclic graph is profiled as its condensation, the graph the DAG-only
// algorithms run on.
func BuildProfile(g *graph.Graph, samples int, seed int64) (Profile, error) {
	st, err := g.RectangleModel()
	if errors.As(err, new(graph.ErrCyclic)) {
		return BuildProfile(g.Condense().DAG, samples, seed)
	}
	if err != nil {
		return Profile{}, err
	}
	p := Profile{
		N:    g.N(),
		Arcs: g.NumArcs(),
		H:    st.H,
		W:    st.W,
	}
	if p.N > 0 {
		p.AvgDegree = float64(p.Arcs) / float64(p.N)
	}
	if samples < 1 {
		samples = 8
	}
	// A graph with no nodes has nothing to sample (and rand.Intn(0)
	// panics); with no arcs every probe would come back empty. Either way
	// Reach is exactly zero, no sampling required.
	if p.N > 0 && p.Arcs > 0 {
		rng := rand.New(rand.NewSource(seed))
		var total int64
		for i := 0; i < samples; i++ {
			src := int32(rng.Intn(p.N) + 1)
			total += int64(g.Reachable([]int32{src}).Count())
		}
		p.Reach = float64(total) / float64(samples)
	}

	// Condensation shape for the bit-matrix threshold: one Tarjan pass plus
	// a distinct-arc count, the same statistics the engine derives before
	// selecting the kernel.
	arcs := g.Arcs()
	scc := graph.SCC(p.N, arcs)
	comp := scc.Component
	p.CondNodes = scc.K()
	seen := make(map[int64]struct{}, len(arcs))
	for _, a := range arcs {
		cu, cv := comp[a.From], comp[a.To]
		if cu == cv {
			continue
		}
		key := int64(cu)<<32 | int64(cv)
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			p.CondArcs++
		}
	}
	p.Density = bitmatrix.Density(p.CondNodes, p.CondArcs)
	return p, nil
}

// Estimate is one candidate's predicted cost.
type Estimate struct {
	Alg core.Algorithm
	IO  float64
	// Why summarizes the dominant term of the model.
	Why string
}

// storage densities of the engine (entries per 2048-byte page).
const (
	listEntriesPerPage = 450 // successor-list pages
	tuplesPerProbePage = 256 // relation pages
)

// scenario derives the intermediate quantities shared by the models.
type scenario struct {
	p      Profile
	s      int // sources; 0 = full closure
	m      int // buffer pages
	magicN float64
	magicA float64
	tc     float64 // estimated closure tuples over the magic graph
	answer float64 // estimated answer tuples
	churn  float64 // buffer-pressure multiplier
}

func newScenario(p Profile, numSources, bufferPages int) scenario {
	sc := scenario{p: p, s: numSources, m: bufferPages}
	n := float64(p.N)
	if numSources == 0 {
		sc.magicN = n
		sc.answer = n * p.Reach
	} else {
		// Union of s random reach sets, by inclusion-exclusion over
		// independent coverage.
		cover := 1 - math.Pow(1-p.Reach/n, float64(numSources))
		sc.magicN = math.Min(n, n*cover+float64(numSources))
		sc.answer = float64(numSources) * p.Reach
	}
	sc.magicA = sc.magicN * p.AvgDegree
	sc.tc = sc.magicN * p.Reach
	// Buffer pressure: a 10-page pool rereads expanded lists far more
	// than a 50-page pool; calibrated against Table 3 / Figure 13.
	sc.churn = 1 + 24/math.Sqrt(float64(bufferPages))
	return sc
}

// Estimates ranks every applicable algorithm for the given query shape.
func Estimates(p Profile, numSources, bufferPages int) []Estimate {
	if p.Arcs == 0 {
		return emptyGraphEstimates(numSources)
	}
	sc := newScenario(p, numSources, bufferPages)
	ests := []Estimate{
		sc.btc(core.BTC, 1.0),
		sc.btc(core.BJ, 0.95), // single-parent optimization shaves a little
		sc.btc(core.SPN, 1.30),
		sc.jkb2(),
		sc.seminaive(),
		sc.warren(),
	}
	if bitmatrix.Fits(p.CondNodes, p.CondArcs) {
		ests = append(ests, sc.bitm())
	}
	if numSources > 0 {
		ests = append(ests, sc.srch())
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i].IO < ests[j].IO })
	return ests
}

// emptyGraphEstimates is the ranking for a graph with zero arcs: every
// candidate performs zero work (the closure is empty whatever the
// algorithm), so each is listed at zero estimated I/O in the canonical
// candidate order. The models themselves are skipped — several divide by
// shape statistics that are degenerate on an empty relation, and a NaN
// leaking into the ranking (or into Profile.Density via a zero-node
// condensation) would poison the JSON plan response.
func emptyGraphEstimates(numSources int) []Estimate {
	const why = "empty graph: the closure is empty, no page I/O needed"
	ests := []Estimate{
		{Alg: core.BTC, Why: why},
		{Alg: core.BJ, Why: why},
		{Alg: core.SPN, Why: why},
		{Alg: core.JKB2, Why: why},
		{Alg: core.SEMI, Why: why},
		{Alg: core.WARREN, Why: why},
		{Alg: core.BITM, Why: why},
	}
	if numSources > 0 {
		ests = append(ests, Estimate{Alg: core.SRCH, Why: why})
	}
	return ests
}

// Choose returns the cheapest estimate.
func Choose(p Profile, numSources, bufferPages int) Estimate {
	return Estimates(p, numSources, bufferPages)[0]
}

func (sc scenario) btc(alg core.Algorithm, factor float64) Estimate {
	// Restructuring: index probes over the magic graph plus initial list
	// writes; computation: expanded-list traffic proportional to the
	// closure, amplified by buffer pressure.
	restruct := sc.magicN/8 + sc.magicA/listEntriesPerPage
	compute := sc.tc / listEntriesPerPage * sc.churn
	return Estimate{
		Alg: alg,
		IO:  factor * (restruct + compute),
		Why: fmt.Sprintf("expands ~%.0f closure tuples over every magic node", sc.tc),
	}
}

func (sc scenario) bitm() Estimate {
	// The dense-core kernel's only page traffic is the relation scan that
	// builds the condensation; the closure itself runs in memory. Offered
	// only when the condensation passes the kernel's own threshold (the
	// caller gates on bitmatrix.Fits), so the estimate has no regime where
	// it must hedge.
	return Estimate{
		Alg: core.BITM,
		IO:  float64(sc.p.Arcs)/tuplesPerProbePage + 1,
		Why: fmt.Sprintf("in-memory kernel over the %d-node condensed core (density %.3f); one relation scan",
			sc.p.CondNodes, sc.p.Density),
	}
}

func (sc scenario) srch() Estimate {
	// Per source, the search touches the distinct relation pages of the
	// reach window (clustering makes probes of nearby nodes share pages)
	// and writes the result list.
	reachPages := sc.p.Reach * sc.p.AvgDegree / tuplesPerProbePage
	perSource := reachPages + 2*sc.p.Reach/listEntriesPerPage + 2
	return Estimate{
		Alg: core.SRCH,
		IO:  float64(sc.s) * perSource,
		Why: fmt.Sprintf("searches ~%.0f nodes per source, %d sources", sc.p.Reach, sc.s),
	}
}

func (sc scenario) jkb2() Estimate {
	// Dual-representation preprocessing (~2x BTC's restructuring) plus
	// trees bounded by the answer — unless the graph is wide, where the
	// missed markings multiply unions over low-locality arcs (Table 4:
	// the penalty scales with width).
	restruct := 2 * (sc.magicN/8 + sc.magicA/listEntriesPerPage)
	trees := 4 * sc.answer / listEntriesPerPage * sc.churn
	widthPenalty := 1 + 6*sc.p.W/float64(sc.p.N)
	if sc.s == 0 {
		// Full closure: every node special, trees grow to pair-encoded
		// predecessor sets (~2x the closure).
		trees = 2 * 2 * sc.tc / listEntriesPerPage * sc.churn
		widthPenalty = 1
	}
	return Estimate{
		Alg: core.JKB2,
		IO:  restruct + trees*widthPenalty,
		Why: fmt.Sprintf("special-node trees near the answer size (~%.0f), width penalty x%.1f", sc.answer, widthPenalty),
	}
}

func (sc scenario) seminaive() Estimate {
	// Depth iterations, each rescanning and rewriting the accumulated
	// result through an external sort.
	depth := math.Max(1, sc.p.H/2)
	perIter := 3 * sc.answer / 255 // sort + merge traffic over heap pages
	return Estimate{
		Alg: core.SEMI,
		IO:  depth*perIter*0.4 + sc.answer/255,
		Why: fmt.Sprintf("~%.0f delta iterations re-sorting the result", depth),
	}
}

func (sc scenario) warren() Estimate {
	// Fixed: two blocked passes over the n^2-bit matrix, regardless of
	// the query's selectivity.
	rowBytes := float64((sc.p.N+8)/8 + 8)
	pages := float64(sc.p.N) * rowBytes / 2048
	blocks := math.Ceil(pages / math.Max(1, float64(sc.m-3)))
	return Estimate{
		Alg: core.WARREN,
		IO:  pages + 2*blocks*pages*0.33,
		Why: fmt.Sprintf("fixed bit-matrix sweep over %.0f pages, any selectivity", pages),
	}
}
