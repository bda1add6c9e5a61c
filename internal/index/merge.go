package index

import (
	"fmt"
	"sort"
)

// InsertArcMerge folds the arc (u,v) into the index in place. An insert
// that respects the condensation's topological order — it does not make
// v's component reach u's — costs one label-merge sweep over the
// components that reach u; the chain structure is untouched, because
// reachability only grows and chain positions keep ordering it. An insert
// that closes a cycle collapses the new strongly connected component in
// place and keeps serving. It returns the number of components merged away
// (0 for acyclicity-preserving inserts).
//
// The collapse follows the Hanauer & Henzinger observation that an insert
// (u,v) with v's component already reaching u's creates exactly one new
// SCC: {cu, cv} plus every component on a cv ~> cu path. The cycle's sink
// cu becomes the representative: every member of the cycle reached cu
// before the insert (that is the membership condition), so every label in
// the index that reaches any cycle member already probes true for cu — no
// label rewriting is needed for paths *into* the merged component. The
// absorbed components keep their chain slots (labels may still point at
// them, and positions after them on a chain stay reachable) but lose their
// member lists, which is how live() and Successors skip them.
func (x *Index) InsertArcMerge(u, v int32) (int, error) {
	if u < 1 || v < 1 || int(u) > x.n || int(v) > x.n {
		return 0, fmt.Errorf("index: arc (%d,%d) outside 1..%d", u, v, x.n)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if u == v {
		x.selfLoop.Add(u)
		x.numArcs++
		x.gen++
		return 0, nil
	}
	cu, cv := x.comp[u], x.comp[v]
	if cu == cv {
		x.numArcs++
		x.gen++
		return 0, nil
	}
	if !x.dagReach(cv, cu) {
		// Topological order preserved: the regular in-place fold applies.
		x.numArcs++
		x.gen++
		if !x.dagReach(cu, cv) {
			x.foldAcyclicLocked(cu, cv)
		}
		return 0, nil
	}

	// v's component reaches u's, so (u,v) closes a cycle. Collect the new
	// SCC: cu, cv, and every live component between them.
	cycle := []int32{cu, cv}
	for d := int32(1); d < int32(len(x.labels)); d++ {
		if d == cu || d == cv || !x.live(d) {
			continue
		}
		if x.dagReach(cv, d) && x.dagReach(d, cu) {
			cycle = append(cycle, d)
		}
	}
	x.mergeComponentsLocked(cu, cycle)
	x.numArcs++
	x.gen++
	return len(cycle) - 1, nil
}

// mergeComponentsLocked collapses the components in cycle (cu included,
// first) into the representative cu.
func (x *Index) mergeComponentsLocked(cu int32, cycle []int32) {
	// The merged component's closure is the union of the members' labels
	// plus the members' own chain points: inside the new SCC everything
	// reaches everything, so each member's point and closure belong to all.
	dense := make([]int32, x.numChains)
	for i := range dense {
		dense[i] = -1
	}
	var touched []int32
	for _, d := range cycle {
		touched = updateMin(dense, touched, x.chainID[d], x.chainPos[d])
		ld := &x.labels[d]
		for j, ch := range ld.chains {
			touched = updateMin(dense, touched, ch, ld.minPos[j])
		}
	}
	cont := packLabel(dense, touched, x.numChains)
	x.labels[cu] = cont

	// Move every absorbed component's members into the representative and
	// retire its slot.
	members := append([]int32(nil), x.members[cu]...)
	for _, d := range cycle {
		if d == cu {
			continue
		}
		for _, node := range x.members[d] {
			x.comp[node] = cu
		}
		members = append(members, x.members[d]...)
		x.members[d] = nil
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	x.members[cu] = members

	// Everything that reached cu before the insert now reaches the whole
	// merged closure (its path enters the cycle, the cycle reaches cont).
	// That is exactly the ancestor set of any cycle member, because every
	// cycle member reached cu pre-insert.
	for d := int32(1); d < int32(len(x.labels)); d++ {
		if d == cu || !x.live(d) {
			continue
		}
		if x.dagReachLabel(d, cu) {
			x.mergeLabel(d, &cont)
		}
	}
	x.recomputeSucc()
}

// DeleteSelfLoop removes a self-arc (u,u) from the index in place. A
// self-arc only ever decides whether u reaches itself, never cross-node
// reachability, so the patch is always safe: clear the self-loop bit. If u
// sits in a non-trivial component, Reach(u,u) stays true through the
// component, matching the graph.
func (x *Index) DeleteSelfLoop(u int32) error {
	if u < 1 || int(u) > x.n {
		return fmt.Errorf("index: node %d outside 1..%d", u, x.n)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.selfLoop.Remove(u)
	x.numArcs--
	x.gen++
	return nil
}

// DeleteRedundantArc records the removal of an arc (u,v) that the caller
// has certified closure-preserving: u still reaches v in the mutated graph
// through another path, so no stored label changes. Only the arc count
// moves. The index trusts the certificate — deleting a closure-shrinking
// arc this way corrupts answers; such deletes must go through a rebuild
// instead (see internal/dynamic).
func (x *Index) DeleteRedundantArc(u, v int32) error {
	if u < 1 || v < 1 || int(u) > x.n || int(v) > x.n {
		return fmt.Errorf("index: arc (%d,%d) outside 1..%d", u, v, x.n)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.numArcs--
	x.gen++
	return nil
}
