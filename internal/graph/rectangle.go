package graph

// The rectangle model of Section 5.3 maps a DAG G to a rectangle of height
// H(G) and width W(G):
//
//	H(G) = mean node level over all nodes
//	W(G) = |G| / H(G)
//
// (The printed formulas are illegible in the available copy of the paper;
// this reconstruction reproduces every H/W pair printed in Table 2 and
// satisfies both halves of Theorem 1 — see DESIGN.md.)
//
// Intuitively H measures how deep paths run, W how much redundancy the arc
// set carries: Theorem 1 shows H is invariant under transitive reduction
// and closure while W(TR(G)) <= W(G) <= W(TC(G)).

// Rectangle is the rectangle-model characterization of a DAG.
type Rectangle struct {
	H float64
	W float64
}

// RectangleModel computes H(G) and W(G). Per Theorem 2, the statistics
// need only the node levels, which a single DFS traversal provides; the
// engine computes them during the restructuring phase at no extra I/O.
func (g *Graph) RectangleModel() (Rectangle, error) {
	levels, err := g.Levels()
	if err != nil {
		return Rectangle{}, err
	}
	return rectangleFromLevels(levels, g.n, g.NumArcs()), nil
}

func rectangleFromLevels(levels []int32, n, arcs int) Rectangle {
	if n == 0 {
		return Rectangle{}
	}
	var sum int64
	for i := 1; i <= n; i++ {
		sum += int64(levels[i])
	}
	h := float64(sum) / float64(n)
	w := 0.0
	if h > 0 {
		w = float64(arcs) / h
	}
	return Rectangle{H: h, W: w}
}

// Stats is one row of Table 2: the characterization of a study graph.
type Stats struct {
	Arcs         int     // |G|
	MaxLevel     int32   // maximum node level
	H            float64 // rectangle-model height
	W            float64 // rectangle-model width
	AvgLocality  float64 // average locality over all arcs
	AvgIrredLoc  float64 // average locality over irredundant arcs
	IrredundArcs int     // number of irredundant arcs (|TR(G)|)
	ClosureSize  int64   // |TC(G)|
}

// ComputeStats derives the full Table 2 characterization of the graph.
func (g *Graph) ComputeStats() (Stats, error) {
	levels, err := g.Levels()
	if err != nil {
		return Stats{}, err
	}
	_, redundant, err := g.Reduction()
	if err != nil {
		return Stats{}, err
	}
	tc, err := g.ClosureSize()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Arcs: g.NumArcs(), ClosureSize: tc}
	for i := 1; i <= g.n; i++ {
		if levels[i] > st.MaxLevel {
			st.MaxLevel = levels[i]
		}
	}
	rect := rectangleFromLevels(levels, g.n, st.Arcs)
	st.H, st.W = rect.H, rect.W
	var sumAll, sumIrr int64
	var nIrr int
	for _, a := range g.Arcs() {
		loc := int64(levels[a.From] - levels[a.To])
		sumAll += loc
		if !redundant(a) {
			sumIrr += loc
			nIrr++
		}
	}
	if st.Arcs > 0 {
		st.AvgLocality = float64(sumAll) / float64(st.Arcs)
	}
	if nIrr > 0 {
		st.AvgIrredLoc = float64(sumIrr) / float64(nIrr)
	}
	st.IrredundArcs = nIrr
	return st, nil
}
