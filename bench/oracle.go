package main

import (
	"tcstudy/internal/chaos"
	"tcstudy/internal/graph"
)

// oracle holds the answers every reply is checked against: the closure of
// one graph computed by chaos.Oracle, the breadth-first search that shares no
// code with the engine, the index or the storage layers. It is laid out as a
// count per node plus one bit row per node so a check costs a lookup.
type oracle struct {
	n     int
	count []int32  // successors of node v (index 0 unused)
	rows  []uint64 // row v holds the bits of v's successors
	words int
}

// checker is one goroutine's view of an oracle: the shared answers plus
// private scratch for duplicate detection.
type checker struct {
	*oracle
	stamp []int32
	tick  int32
}

func (o *oracle) checker() *checker {
	return &checker{oracle: o, stamp: make([]int32, o.n+1)}
}

func newOracle(n int, arcs []graph.Arc) *oracle {
	o := &oracle{n: n, count: make([]int32, n+1), words: (n + 64) / 64}
	o.rows = make([]uint64, (n+1)*o.words)
	for v, succ := range chaos.Oracle(n, arcs, nil) {
		o.count[v] = int32(len(succ))
		row := o.rows[int(v)*o.words:]
		for _, w := range succ {
			row[w>>6] |= 1 << (uint(w) & 63)
		}
	}
	return o
}

func (o *oracle) reach(src, dst int32) bool {
	return o.rows[int(src)*o.words+int(dst>>6)]&(1<<(uint(dst)&63)) != 0
}

// sameSet reports whether got is exactly src's successor set: the right
// size, every member a true successor, none twice.
func (o *checker) sameSet(src int32, got []int32) bool {
	if len(got) != int(o.count[src]) {
		return false
	}
	o.tick++
	for _, v := range got {
		if v < 1 || int(v) > o.n || !o.reach(src, v) || o.stamp[v] == o.tick {
			return false
		}
		o.stamp[v] = o.tick
	}
	return true
}

// countsMatch checks a /v1/query reply's successor_counts: one entry per
// distinct source, each the oracle's count.
func (o *checker) countsMatch(sources []int32, counts map[int32]int) bool {
	distinct := 0
	o.tick++
	for _, s := range sources {
		if o.stamp[s] == o.tick {
			continue
		}
		o.stamp[s] = o.tick
		distinct++
		if c, ok := counts[s]; !ok || c != int(o.count[s]) {
			return false
		}
	}
	return distinct == len(counts)
}
