// Reachability over a cyclic graph: link graphs, call graphs and social
// graphs all contain cycles, which the paper's algorithms do not accept
// directly. Its introduction prescribes the standard remedy — merge the
// strongly connected components into an acyclic condensation, close that,
// and expand — and the database does exactly that for BTC. This example
// runs it on a synthetic web link graph with hub-and-spoke cycles.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"tcstudy"
)

// buildLinkGraph wires pages into clusters with internal cycles (sites
// whose pages link each other) plus sparse forward cross-site links.
func buildLinkGraph(sites, pagesPerSite int, seed int64) *tcstudy.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := sites * pagesPerSite
	var arcs []tcstudy.Arc
	page := func(site, idx int) int32 { return int32(site*pagesPerSite + idx + 1) }
	for s := 0; s < sites; s++ {
		// A ring through the site's pages makes the site one SCC.
		for p := 0; p < pagesPerSite; p++ {
			arcs = append(arcs, tcstudy.Arc{From: page(s, p), To: page(s, (p+1)%pagesPerSite)})
		}
		// Extra internal links.
		for k := 0; k < pagesPerSite; k++ {
			arcs = append(arcs, tcstudy.Arc{
				From: page(s, rng.Intn(pagesPerSite)),
				To:   page(s, rng.Intn(pagesPerSite)),
			})
		}
		// Outbound links to later sites only, so the site DAG is acyclic.
		for k := 0; k < 3 && s+1 < sites; k++ {
			target := s + 1 + rng.Intn(sites-s-1)
			arcs = append(arcs, tcstudy.Arc{
				From: page(s, rng.Intn(pagesPerSite)),
				To:   page(target, rng.Intn(pagesPerSite)),
			})
		}
	}
	// Drop self-loops introduced by the random internal links.
	keep := arcs[:0]
	for _, a := range arcs {
		if a.From != a.To {
			keep = append(keep, a)
		}
	}
	return tcstudy.NewGraph(n, keep)
}

func main() {
	g := buildLinkGraph(120, 12, 3)
	fmt.Printf("link graph: %d pages, %d links, acyclic=%v\n",
		g.N(), g.NumArcs(), g.IsAcyclic())

	// BTC needs a DAG, so it runs on the condensation; its magic graph is
	// every component.
	db := tcstudy.NewDB(g)
	cc, err := db.FullClosure(tcstudy.BTC, tcstudy.Config{BufferPages: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("condensation: %d strongly connected components (sites)\n", cc.Metrics.MagicNodes)
	fmt.Printf("closure of the condensation: %d page I/O\n\n", cc.Metrics.TotalIO())

	var totalReach int64
	for _, succ := range cc.Successors {
		totalReach += int64(len(succ))
	}
	fmt.Printf("total reachability pairs: %d (avg %.1f pages reachable per page)\n",
		totalReach, float64(totalReach)/float64(g.N()))

	// Pages in one site reach each other.
	fmt.Printf("page 1 reaches %d pages, including its own site's %d pages\n",
		len(cc.Successors[1]), 12)

	// Schmitz's algorithm handles the cycles natively — no separate
	// condensation pass — with the whole computation's I/O in one figure.
	sres, err := db.Run(tcstudy.SCHMITZ, tcstudy.Query{}, tcstudy.Config{BufferPages: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnative Schmitz closure: %d page I/O end to end; page 1 reaches %d pages (agrees: %v)\n",
		sres.Metrics.TotalIO(), len(sres.Successors[1]),
		len(sres.Successors[1]) == len(cc.Successors[1]))
}
