package tcstudy_test

import (
	"fmt"

	"tcstudy"
)

// The five-line tour: build a graph, store it, close it, read the cost.
func Example() {
	g := tcstudy.NewGraph(4, []tcstudy.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	})
	db := tcstudy.NewDB(g)
	res, _ := db.FullClosure(tcstudy.BTC, tcstudy.Config{BufferPages: 8})
	fmt.Println("node 1 reaches", len(res.Successors[1]), "nodes")
	// Output: node 1 reaches 3 nodes
}

func ExampleDB_Successors() {
	g := tcstudy.NewGraph(5, []tcstudy.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 4, To: 5},
	})
	db := tcstudy.NewDB(g)
	// SRCH is the paper's recommendation for very selective queries.
	res, _ := db.Successors(tcstudy.SRCH, []int32{1}, tcstudy.Config{BufferPages: 8})
	fmt.Println(len(res.Successors[1]), res.Metrics.SelectionEfficiency())
	// Output: 2 1
}

func ExampleDB_Predecessors() {
	g := tcstudy.NewGraph(4, []tcstudy.Arc{
		{From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 4},
	})
	db := tcstudy.NewDB(g)
	res, _ := db.Predecessors(tcstudy.BTC, []int32{4}, tcstudy.Config{BufferPages: 8})
	fmt.Println(len(res.Successors[4]), "nodes reach node 4")
	// Output: 3 nodes reach node 4
}

func ExampleDB_Paths() {
	// 1 -> 2 -> 4 and 1 -> 3 -> 4: two routes of two hops each.
	g := tcstudy.NewGraph(4, []tcstudy.Arc{
		{From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4},
	})
	db := tcstudy.NewDB(g)
	cnt, _ := db.Paths(tcstudy.PathCount, []int32{1}, tcstudy.Config{BufferPages: 8})
	min, _ := db.Paths(tcstudy.MinHops, []int32{1}, tcstudy.Config{BufferPages: 8})
	fmt.Println(cnt.Values[1][4], "paths, shortest is", min.Values[1][4], "hops")
	// Output: 2 paths, shortest is 2 hops
}

func ExampleNewWeightedDB() {
	g := tcstudy.NewGraph(3, []tcstudy.Arc{
		{From: 1, To: 2}, {From: 2, To: 3}, {From: 1, To: 3},
	})
	// The direct arc is expensive; the detour is cheap.
	db, _ := tcstudy.NewWeightedDB(g, func(a tcstudy.Arc) int32 {
		if a.From == 1 && a.To == 3 {
			return 10
		}
		return 2
	})
	res, _ := db.Paths(tcstudy.MinWeight, []int32{1}, tcstudy.Config{BufferPages: 8})
	fmt.Println("cheapest 1->3 costs", res.Values[1][3])
	// Output: cheapest 1->3 costs 4
}

func ExampleDB_FullClosure_cyclic() {
	// A two-node cycle feeding a sink. BTC needs a DAG, so it runs on the
	// condensation, whose nodes are the graph's two components.
	g := tcstudy.NewGraph(3, []tcstudy.Arc{
		{From: 1, To: 2}, {From: 2, To: 1}, {From: 2, To: 3},
	})
	res, _ := tcstudy.NewDB(g).FullClosure(tcstudy.BTC, tcstudy.Config{BufferPages: 8})
	fmt.Println(res.Metrics.MagicNodes, "components; node 1 reaches", len(res.Successors[1]), "nodes")
	// Output: 2 components; node 1 reaches 3 nodes
}

func ExampleAdvise() {
	narrow := tcstudy.GraphStats{W: 60}
	fmt.Println(tcstudy.Advise(narrow, 2000, 0))   // full closure
	fmt.Println(tcstudy.Advise(narrow, 2000, 3))   // few sources
	fmt.Println(tcstudy.Advise(narrow, 2000, 100)) // selective, narrow graph
	// Output:
	// btc
	// srch
	// jkb2
}

func ExampleDB_NewSession() {
	g, _ := tcstudy.Generate(300, 3, 40, 1)
	db := tcstudy.NewDB(g)
	s, _ := db.NewSession(tcstudy.Config{BufferPages: 40})
	cold, _ := s.Successors(tcstudy.SRCH, []int32{7})
	warm, _ := s.Successors(tcstudy.SRCH, []int32{7})
	fmt.Println("warm rerun cheaper:", warm.Metrics.TotalIO() < cold.Metrics.TotalIO())
	// Output: warm rerun cheaper: true
}

func ExampleGraph_Stats() {
	g, _ := tcstudy.Generate(2000, 5, 200, 1) // the study's G5 family
	st, _ := g.Stats()
	fmt.Println("H and W are positive:", st.H > 0 && st.W > 0)
	fmt.Println("closure is much larger than the graph:",
		st.ClosureSize > 10*int64(st.Arcs))
	// Output:
	// H and W are positive: true
	// closure is much larger than the graph: true
}
