package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// recursiveTarjan is the textbook recursive formulation of Walk, kept as
// the reference the iterative one is compared against.
type recursiveTarjan struct {
	adj        [][]int32
	index, low []int32
	open       []int32
	counter    int32
	finish     []int32
	components [][]int32
	cyclic     []bool
}

func (r *recursiveTarjan) visit(v int32) {
	r.counter++
	r.index[v], r.low[v] = r.counter, r.counter
	r.open = append(r.open, v)
	for _, c := range r.adj[v] {
		if r.index[c] == 0 {
			r.visit(c)
			r.low[v] = min(r.low[v], r.low[c])
		} else if slices.Contains(r.open, c) {
			r.low[v] = min(r.low[v], r.index[c])
		}
	}
	if r.low[v] == r.index[v] {
		at := slices.Index(r.open, v)
		members := slices.Clone(r.open[at:])
		r.open = r.open[:at]
		r.components = append(r.components, members)
		r.cyclic = append(r.cyclic, len(members) > 1 || slices.Contains(r.adj[v], v))
	}
	r.finish = append(r.finish, v)
}

// TestWalkMatchesRecursiveTarjan: on seeded random digraphs — DAGs and
// cyclic ones, self-arcs included, walked from every node or from a few
// roots — the iterative walk reports the reference's components (members,
// pop order, cyclic flags) and finish order, asks for each reached node's
// children exactly once and for no other node's, and SCC and TopoSort, the
// same walk over other child sources, agree with it.
func TestWalkMatchesRecursiveTarjan(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		dag := seed%2 == 0
		var arcs []Arc
		for i := rng.Intn(3 * n); i > 0; i-- {
			a := Arc{From: int32(rng.Intn(n) + 1), To: int32(rng.Intn(n) + 1)}
			if dag && a.From >= a.To {
				continue
			}
			arcs = append(arcs, a)
		}
		g := New(n, arcs)
		roots := allNodes(n)
		whole := seed%3 != 0
		if !whole {
			rng.Shuffle(n, func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
			roots = roots[:rng.Intn(n)+1]
		}

		ref := &recursiveTarjan{adj: g.adj, index: make([]int32, n+1), low: make([]int32, n+1)}
		for _, r := range roots {
			if ref.index[r] == 0 {
				ref.visit(r)
			}
		}

		calls := make([]int, n+1)
		var components [][]int32
		var cyclic []bool
		finish, err := Walk(n, roots, func(v int32) ([]int32, error) {
			calls[v]++
			return g.adj[v], nil
		}, func(members []int32, cyc bool) {
			components = append(components, slices.Clone(members))
			cyclic = append(cyclic, cyc)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(finish, ref.finish) {
			t.Fatalf("seed %d: finish order %v, reference %v", seed, finish, ref.finish)
		}
		if !slices.EqualFunc(components, ref.components, slices.Equal[[]int32]) || !slices.Equal(cyclic, ref.cyclic) {
			t.Fatalf("seed %d: components %v cyclic %v, reference %v %v", seed, components, cyclic, ref.components, ref.cyclic)
		}
		for v := int32(1); v <= int32(n); v++ {
			if want := min(int(ref.index[v]), 1); calls[v] != want {
				t.Fatalf("seed %d: children(%d) called %d times, want %d", seed, v, calls[v], want)
			}
		}
		if !whole {
			continue
		}
		scc := SCC(n, g.Arcs())
		for c, members := range components {
			for _, v := range members {
				if scc.Component[v] != int32(c+1) {
					t.Fatalf("seed %d: SCC puts node %d in component %d, the walk popped it %d", seed, v, scc.Component[v], c+1)
				}
			}
		}
		if !slices.Equal(scc.Cyclic[1:], cyclic) {
			t.Fatalf("seed %d: SCC cyclic %v, walk %v", seed, scc.Cyclic[1:], cyclic)
		}
		order, err := g.TopoSort()
		if acyclic := !slices.Contains(cyclic, true); (err == nil) != acyclic {
			t.Fatalf("seed %d: TopoSort err %v on a graph with cyclic components %v", seed, err, cyclic)
		} else if acyclic {
			slices.Reverse(order)
			if !slices.Equal(order, finish) {
				t.Fatalf("seed %d: TopoSort is not the reversed finish order: %v vs %v", seed, order, finish)
			}
		}
	}
}

// TestWalkStopsOnChildrenError: the first error from children ends the walk
// and comes back unchanged.
func TestWalkStopsOnChildrenError(t *testing.T) {
	boom := errors.New("page read failed")
	calls := 0
	_, err := Walk(3, []int32{1}, func(v int32) ([]int32, error) {
		calls++
		if v == 2 {
			return nil, boom
		}
		return []int32{v + 1}, nil
	}, nil)
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("err = %v after %d calls, want %v after 2", err, calls, boom)
	}
}
