package core

import (
	"fmt"
	"math/bits"

	"tcstudy/internal/bitmatrix"
	"tcstudy/internal/graph"
	"tcstudy/internal/obsv"
	"tcstudy/internal/relation"
)

// The dense-core bit-matrix strategy (ROADMAP item: the raw-speed lever).
//
// BITM condenses the stored graph into its DAG of strongly connected
// components, and when that condensation fits the internal/bitmatrix
// size/density threshold it closes the core with the in-memory
// word-parallel kernel — 64 reachability bits per uint64, one row OR per
// arc in reverse topological order (bitmatrix.ClosureDAG) — and expands
// the answer back through SCC membership. Oversized or
// too-sparse condensations fall back to the engine's list-based
// algorithms: BTC on acyclic input, Schmitz (the cyclic-native algorithm)
// when the input has cycles, since BTC's restructuring cannot
// topologically sort a cyclic graph.
//
// The restructuring phase is the one relation scan that builds the
// condensation (charged through the buffer pool like every algorithm's
// restructuring); the computation phase is the kernel itself, which
// performs no page I/O at all — its logical work is reported through
// ListUnions (row ORs) and ArcsConsidered (set bits driving them), the
// same convention as the Blocked Warren baseline. Like the matrix family,
// the kernel always computes the full closure of the core, so a selection
// query costs as much as CTC (only the source rows are expanded).
//
// The kernel is always the serial DAG sweep: on the cores that fit it is
// far faster than any parallel kernel.

// runBitMatrix executes the dense-core strategy end to end.
func (e *engine) runBitMatrix() error {
	n := e.db.n
	var (
		mat     *bitmatrix.Matrix
		fits    bool
		trivial bool // every component is a single node: matrix rows are node ids
		scc     graph.Components
	)
	if err := e.timedPhase(true, func() error {
		arcs := make([]graph.Arc, 0, e.db.rel.NumTuples())
		var bad *relation.Tuple
		err := e.db.rel.Scan(e.pool, func(t relation.Tuple) bool {
			if t.Key < 1 || t.Key > int32(n) || t.Val < 1 || t.Val > int32(n) {
				bad = &t
				return false
			}
			arcs = append(arcs, graph.Arc{From: t.Key, To: t.Val})
			return true
		})
		if err != nil {
			return err
		}
		if bad != nil {
			return fmt.Errorf("bitmatrix: relation tuple (%d,%d) outside node space 1..%d", bad.Key, bad.Val, n)
		}
		scc = graph.SCC(n, arcs)
		comp, k := scc.Component, scc.K()
		trivial = k == n
		// The condensation is the graph the kernel computes over; report
		// its shape where the list algorithms report their magic graph.
		e.met.MagicNodes = int64(k)

		if trivial {
			// The component DAG is the graph itself, so the matrix is built
			// over node ids directly (the relation's tuples are distinct, so
			// the tuple count is the arc count) and answers need no
			// component translation at all.
			e.met.MagicArcs = int64(len(arcs))
			fits = bitmatrix.Fits(k, len(arcs))
			if !fits {
				return nil
			}
			mat = bitmatrix.New(n + 1)
			for _, a := range arcs {
				mat.Set(int(a.From), int(a.To))
			}
			return nil
		}

		if k > bitmatrix.MaxNodes {
			// Too large for the kernel under any density; report the raw
			// inter-component arc count (parallel arcs between big
			// components may be counted more than once — deduplicating a
			// core this size is exactly the work we are declining).
			condArcs := int64(0)
			for _, a := range arcs {
				if comp[a.From] != comp[a.To] {
					condArcs++
				}
			}
			e.met.MagicArcs = condArcs
			return nil
		}
		// Components are numbered 1..K; allocate K+1 rows and leave row 0
		// empty so component ids index the matrix directly. The matrix
		// doubles as the deduplicator: its popcount is the distinct
		// inter-component arc count the density gate needs.
		mat = bitmatrix.New(k + 1)
		for _, a := range arcs {
			if cu, cv := comp[a.From], comp[a.To]; cu != cv {
				mat.Set(int(cu), int(cv))
			}
		}
		condArcs := int(mat.Count())
		e.met.MagicArcs = int64(condArcs)
		fits = bitmatrix.Fits(k, condArcs)
		if !fits {
			mat = nil
		}
		return nil
	}); err != nil {
		return err
	}

	if !fits {
		// Out of the kernel's regime: hand the query to the list engine.
		// The scan above stays charged to restructuring — it is the honest
		// cost of deciding.
		if !e.db.acyclic {
			return e.runSchmitz()
		}
		return e.runListClosure(specBTC)
	}

	if err := e.timedPhase(false, func() error {
		if e.phaseSpan != nil {
			sp := e.phaseSpan.Child("kernel", obsv.KV("rows", mat.N()-1))
			defer sp.Finish()
		}
		// The condensation is acyclic by construction, so the kernel is
		// always the one-pass DAG sweep.
		var st bitmatrix.Stats
		if trivial {
			// The matrix is row-indexed by node id; Tarjan's component
			// numbering is a reverse-topological order of those nodes.
			order := make([]int, n)
			for v := 1; v <= n; v++ {
				order[scc.Component[v]-1] = v
			}
			st = mat.ClosureDAG(order)
		} else {
			// Component ids are already reverse-topological: every
			// inter-component arc points to a smaller id.
			st = mat.ClosureDAG(nil)
		}
		e.met.ListUnions += st.RowUnions
		e.met.ArcsConsidered += st.BitsDriving
		return nil
	}); err != nil {
		return err
	}

	// Expand the source rows after measurement ends, exactly like the other
	// algorithms' answer materialization.
	e.answer = make(map[int32][]int32)
	if trivial {
		// Rows are node ids: each answer is the row's set bits, already in
		// ascending node order. A self-loop put its own bit in the row, so
		// v reaches v exactly when the input says so.
		for _, s := range e.sources() {
			row := mat.Row(int(s))
			count := 0
			for _, w := range row {
				count += bits.OnesCount64(w)
			}
			succ := make([]int32, 0, count)
			for wi, w := range row {
				base := int32(wi * 64)
				for w != 0 {
					succ = append(succ, base+int32(bits.TrailingZeros64(w)))
					w &= w - 1
				}
			}
			e.answer[s] = succ
			e.met.SourceTuples += int64(len(succ))
		}
	} else {
		// Rows are component ids: the condensation's one expansion turns
		// each source's row back into nodes, ascending.
		for _, s := range e.sources() {
			succ := scc.Expand(s, mat.Row(int(scc.Component[s])))
			e.answer[s] = succ
			e.met.SourceTuples += int64(len(succ))
		}
	}
	// Whole-row computation generates no per-tuple traffic; as with
	// Warren, the materialized answer is the distinct-tuple count.
	e.met.DistinctTuples = e.met.SourceTuples
	return nil
}
