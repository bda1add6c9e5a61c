package core

import (
	"fmt"
	"math"
	"sort"

	"tcstudy/internal/slist"
)

// Generalized transitive closure: path aggregates over the same paged
// framework. The paper's companion work — Dar's thesis, its reference [7],
// "Augmenting Databases with Generalized Transitive Closure" — extends
// reachability to path problems; this file implements the unit-weight
// aggregates on top of the study's storage engine:
//
//	MinHops    shortest path length in arcs
//	MaxHops    longest path length (critical path on a DAG)
//	PathCount  number of distinct paths (saturating)
//
// The computation mirrors BTC — reverse topological expansion with the
// immediate successor optimization — but with two necessary departures,
// both documented in DESIGN.md: the marking optimization must stay off
// (a transitively redundant arc is redundant for reachability, not for
// path aggregation), and successor entries carry an aggregate value that
// can be *updated* by later unions, so each node's list is accumulated in
// memory during its own expansion and written once complete, rather than
// expanded in place.

// PathAggregate selects a generalized-closure aggregate.
type PathAggregate string

// The supported aggregates. MinWeight and MaxWeight require a weighted
// database (NewDatabaseWeighted); the others treat every arc as one hop.
const (
	MinHops   PathAggregate = "minhops"
	MaxHops   PathAggregate = "maxhops"
	PathCount PathAggregate = "pathcount"
	MinWeight PathAggregate = "minweight"
	MaxWeight PathAggregate = "maxweight"
)

// weightedAgg reports whether the aggregate consults arc weights.
func weightedAgg(agg PathAggregate) bool {
	return agg == MinWeight || agg == MaxWeight
}

// PathResult is the outcome of a generalized closure computation: for each
// requested source, the aggregate value per reachable node.
type PathResult struct {
	Metrics Metrics
	Values  map[int32]map[int32]int64
}

// pathCountCap saturates path counts; dense DAGs have exponentially many
// paths.
const pathCountCap = math.MaxInt64 / 4

// RunPaths executes a generalized closure query.
func RunPaths(db *Database, agg PathAggregate, q Query, cfg Config) (*PathResult, error) {
	switch agg {
	case MinHops, MaxHops, PathCount:
	case MinWeight, MaxWeight:
		if !db.Weighted() {
			return nil, fmt.Errorf("core: aggregate %q needs a weighted database (NewDatabaseWeighted)", agg)
		}
	default:
		return nil, fmt.Errorf("core: unknown path aggregate %q", agg)
	}
	if !db.acyclic {
		// Unlike reachability, a path aggregate does not survive
		// condensation: a path count over a cycle is unbounded.
		return nil, invalidInput("path aggregate %q needs a DAG and the stored graph has a cycle", agg)
	}
	r, err := Request{Alg: Algorithm("paths-" + string(agg)), Query: q, Cfg: cfg}.validateInputs(db)
	if err != nil {
		return nil, err
	}
	db.disk.ResetStats()
	res := &PathResult{}
	e, err := runOwned(db, r, func(e *engine) error { return e.runPathAgg(agg, res) })
	if err != nil {
		return nil, err
	}
	res.Metrics = e.met
	return res, nil
}

// runPathAgg performs the two phases of a generalized closure.
func (e *engine) runPathAgg(agg PathAggregate, out *PathResult) error {
	weighted := weightedAgg(agg)
	e.needWeights = weighted
	if err := e.timedPhase(true, func() error {
		adj, err := e.discover()
		if err != nil {
			return err
		}
		layout := flatLists
		if weighted {
			layout = weightedLists
		}
		return e.buildLists(adj, layout)
	}); err != nil {
		return err
	}

	// Aggregate lists live beside the immediate-successor lists: entry
	// pairs (node, value), written once per node after its expansion.
	aggStore := e.newStore("aggregate-lists", e.db.n+1)

	if err := e.timedPhase(false, func() error {
		acc := make(map[int32]int64)
		var flat []int32
		var it slist.Iterator // reused across the hot loop
		for i := len(e.order) - 1; i >= 0; i-- {
			v := e.order[i]
			for k := range acc {
				delete(acc, k)
			}
			// Immediate successors contribute the single-arc path.
			children, weights, err := e.readChildrenPairs(v, weighted)
			if err != nil {
				return err
			}
			for ci, c := range children {
				w := int64(1)
				if weighted {
					w = int64(weights[ci])
				}
				e.met.ArcsConsidered++
				e.met.ListUnions++
				e.met.noteUnmarked(e.levels[v] - e.levels[c])
				combineArc(agg, acc, c, w)
				// Union with the child's aggregate list.
				it.Reset(aggStore, c)
				for {
					u, ok := it.Next()
					if !ok {
						break
					}
					val, ok := it.Next()
					if !ok {
						it.Close()
						return fmt.Errorf("core: malformed aggregate list for node %d", c)
					}
					e.met.SuccessorsFetched += 2
					e.met.TuplesGenerated++
					combinePath(agg, acc, u, int64(val), w)
				}
				it.Close()
				if err := it.Err(); err != nil {
					return err
				}
			}
			// Write the completed list: pairs in ascending node order for
			// determinism.
			flat = flat[:0]
			keys := make([]int32, 0, len(acc))
			for u := range acc {
				keys = append(keys, u)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			for _, u := range keys {
				flat = append(flat, u, clamp32(acc[u]))
				e.met.DistinctTuples++
			}
			if err := aggStore.AppendAll(v, flat); err != nil {
				return err
			}
		}
		return e.writeOut(aggStore, e.q.Sources, func(s int32) int64 { return int64(aggStore.Len(s) / 2) })
	}); err != nil {
		return err
	}

	// Extract the answer after measurement.
	out.Values = make(map[int32]map[int32]int64)
	for _, s := range e.answerNodes() {
		pairs, err := aggStore.ReadAll(s)
		if err != nil {
			return err
		}
		m := make(map[int32]int64, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			m[pairs[i]] = int64(pairs[i+1])
		}
		out.Values[s] = m
	}
	return nil
}

// readChildrenPairs fetches node v's immediate successors from its list:
// flat entries in the unweighted layout, (child, weight) pairs in the
// weighted one.
func (e *engine) readChildrenPairs(v int32, weighted bool) ([]int32, []int32, error) {
	k := e.childCount[v]
	children := make([]int32, 0, k)
	var weights []int32
	if weighted {
		weights = make([]int32, 0, k)
	}
	it := e.store.NewIterator(v)
	for int32(len(children)) < k {
		c, ok := it.Next()
		if !ok {
			break
		}
		e.met.SuccessorsFetched++
		children = append(children, c)
		if weighted {
			w, ok := it.Next()
			if !ok {
				it.Close()
				return nil, nil, fmt.Errorf("core: malformed weighted list for node %d", v)
			}
			e.met.SuccessorsFetched++
			weights = append(weights, w)
		}
	}
	it.Close()
	return children, weights, it.Err()
}

// combineArc folds the direct arc v -> c (of weight w, which is 1 for the
// hop aggregates) into the accumulator.
func combineArc(agg PathAggregate, acc map[int32]int64, c int32, w int64) {
	switch agg {
	case MinHops, MinWeight:
		if d, ok := acc[c]; !ok || d > w {
			acc[c] = w
		}
	case MaxHops, MaxWeight:
		if d, ok := acc[c]; !ok || d < w {
			acc[c] = w
		}
	case PathCount:
		acc[c] = satAdd(acc[c], 1)
	}
}

// combinePath folds a path v -> c ~> u (child c's aggregate val for u,
// extended by the arc v -> c of weight w) into the accumulator.
func combinePath(agg PathAggregate, acc map[int32]int64, u int32, val, w int64) {
	switch agg {
	case MinHops, MinWeight:
		cand := val + w
		if d, ok := acc[u]; !ok || d > cand {
			acc[u] = cand
		}
	case MaxHops, MaxWeight:
		cand := val + w
		if d, ok := acc[u]; !ok || d < cand {
			acc[u] = cand
		}
	case PathCount:
		acc[u] = satAdd(acc[u], val)
	}
}

// clamp32 saturates an aggregate value into the stored 32-bit entry.
func clamp32(v int64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

func satAdd(a, b int64) int64 {
	s := a + b
	if s > pathCountCap || s < 0 {
		return pathCountCap
	}
	return s
}
