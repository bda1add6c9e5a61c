package index

// foldAcyclicLocked merges the closure contribution of the new arc
// cu -> cv (cv itself plus everything cv reaches) into every live
// component that reaches cu, cu included. Membership is answered by the
// index itself in O(log k) per candidate.
func (x *Index) foldAcyclicLocked(cu, cv int32) {
	dense := make([]int32, x.numChains)
	for i := range dense {
		dense[i] = -1
	}
	var touched []int32
	touched = updateMin(dense, touched, x.chainID[cv], x.chainPos[cv])
	lv := &x.labels[cv]
	for j, ch := range lv.chains {
		touched = updateMin(dense, touched, ch, lv.minPos[j])
	}
	cont := packLabel(dense, touched, x.numChains)

	for d := int32(1); d < int32(len(x.labels)); d++ {
		if !x.live(d) {
			continue
		}
		if d == cu || x.dagReachLabel(d, cu) {
			x.mergeLabel(d, &cont)
		}
	}
	x.recomputeSucc()
}

// mergeLabel folds contribution cont into component d's label: a sorted
// two-pointer merge taking the position minimum on common chains.
func (x *Index) mergeLabel(d int32, cont *label) {
	ld := &x.labels[d]
	if !ld.set.Intersects(cont.set) {
		// Disjoint chain sets: plain concatenation-merge, no minimums to
		// reconcile — the common case when the insert bridges two regions.
		merged := make([]int32, 0, len(ld.chains)+len(cont.chains))
		pos := make([]int32, 0, len(ld.chains)+len(cont.chains))
		i, j := 0, 0
		for i < len(ld.chains) && j < len(cont.chains) {
			if ld.chains[i] < cont.chains[j] {
				merged, pos = append(merged, ld.chains[i]), append(pos, ld.minPos[i])
				i++
			} else {
				merged, pos = append(merged, cont.chains[j]), append(pos, cont.minPos[j])
				j++
			}
		}
		merged = append(merged, ld.chains[i:]...)
		pos = append(pos, ld.minPos[i:]...)
		merged = append(merged, cont.chains[j:]...)
		pos = append(pos, cont.minPos[j:]...)
		ld.chains, ld.minPos = merged, pos
		ld.set.Or(cont.set)
		return
	}
	merged := make([]int32, 0, len(ld.chains)+len(cont.chains))
	pos := make([]int32, 0, len(ld.chains)+len(cont.chains))
	i, j := 0, 0
	for i < len(ld.chains) || j < len(cont.chains) {
		switch {
		case j == len(cont.chains) || (i < len(ld.chains) && ld.chains[i] < cont.chains[j]):
			merged, pos = append(merged, ld.chains[i]), append(pos, ld.minPos[i])
			i++
		case i == len(ld.chains) || cont.chains[j] < ld.chains[i]:
			merged, pos = append(merged, cont.chains[j]), append(pos, cont.minPos[j])
			j++
		default: // same chain: keep the earlier position
			p := ld.minPos[i]
			if cont.minPos[j] < p {
				p = cont.minPos[j]
			}
			merged, pos = append(merged, ld.chains[i]), append(pos, p)
			i++
			j++
		}
	}
	ld.chains, ld.minPos = merged, pos
	ld.set.Or(cont.set)
}
