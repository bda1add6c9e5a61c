// Command tcindex builds, inspects and queries persistent reachability
// index files (the chain-decomposition fast path tcserve puts in front of
// the closure engine). Subcommands:
//
//	tcindex build -o graph.idx -input graph.txt         # from tcgen -dump output
//	tcindex build -o graph.idx -n 2000 -f 5 -l 200      # from the generator
//	tcindex build -o graph.idx -decomp=kt -par 4        # Kritikakis-Tollis chains
//	tcindex inspect graph.idx                           # shape, labels, generation
//	tcindex reach graph.idx 3 777                       # one reachability probe
//
// The input file format is the "src dst" line format tcgen -dump emits and
// tcquery -input consumes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "reach":
		reach(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tcindex build -o <file> [-input arcs.txt | -n N -f F -l L -seed S] [-decomp greedy|kt] [-par P]
  tcindex inspect <file>
  tcindex reach <file> <src> <dst>`)
	os.Exit(2)
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		out    = fs.String("o", "", "output index file (required)")
		input  = fs.String("input", "", "read arcs from file of \"src dst\" lines instead of generating")
		n      = fs.Int("n", 2000, "number of nodes (generated input)")
		f      = fs.Int("f", 5, "average out-degree (generated input)")
		l      = fs.Int("l", 200, "generation locality (generated input)")
		seed   = fs.Int64("seed", 1, "generator seed")
		decomp = fs.String("decomp", index.BuilderGreedy, "chain decomposition: greedy or kt (Kritikakis-Tollis)")
		par    = fs.Int("par", 1, "worker pool size for the kt builder's label sweeps")
	)
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("build: -o is required"))
	}
	if *decomp != index.BuilderGreedy && *decomp != index.BuilderKT {
		fatal(fmt.Errorf("build: -decomp must be %q or %q, got %q", index.BuilderGreedy, index.BuilderKT, *decomp))
	}
	var (
		arcs  []graph.Arc
		nodes int
		err   error
	)
	if *input != "" {
		arcs, nodes, err = graph.ReadArcFile(*input)
	} else {
		nodes = *n
		arcs, err = graphgen.Generate(graphgen.Params{Nodes: *n, OutDegree: *f, Locality: *l, Seed: *seed})
	}
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	var x *index.Index
	if *decomp == index.BuilderKT {
		x, err = index.BuildKT(graph.New(nodes, arcs), index.KTOptions{Parallelism: *par})
	} else {
		x, err = index.Build(graph.New(nodes, arcs))
	}
	if err != nil {
		fatal(err)
	}
	buildTime := time.Since(start)
	if err := x.SaveFile(*out); err != nil {
		fatal(err)
	}
	fi, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	st := x.ComputeStats()
	fmt.Printf("built %s in %s (%s decomposition)\n", *out, buildTime.Round(time.Millisecond), st.Builder)
	fmt.Printf("graph     n=%d |G|=%d components=%d\n", st.Nodes, st.Arcs, st.Components)
	fmt.Printf("chains    %d (avg label %.1f entries, %d total)\n", st.Chains, st.AvgLabel, st.LabelEntries)
	fmt.Printf("file      %d bytes (%.1f bytes/node)\n", fi.Size(), st.BytesPerNode)
}

func inspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	x, err := index.LoadFile(args[0])
	if err != nil {
		fatal(err)
	}
	st := x.ComputeStats()
	fmt.Printf("graph          n=%d |G|=%d\n", st.Nodes, st.Arcs)
	fmt.Printf("builder        %s\n", st.Builder)
	fmt.Printf("components     %d\n", st.Components)
	fmt.Printf("chains         %d\n", st.Chains)
	fmt.Printf("label entries  %d (avg %.1f per component)\n", st.LabelEntries, st.AvgLabel)
	fmt.Printf("label size     p50=%d p95=%d max=%d entries per component\n", st.P50Label, st.P95Label, st.MaxLabel)
	fmt.Printf("file size      %d bytes (%.1f bytes/node)\n", st.FileBytes, st.BytesPerNode)
	fmt.Printf("chain overlap  %.2f (sampled label pairs sharing a chain)\n", st.ChainOverlap)
	fmt.Printf("generation     %d\n", st.Generation)
	fmt.Printf("merged comps   %d (SCC merges absorbed in place)\n", st.Merged)
}

func reach(args []string) {
	if len(args) != 3 {
		usage()
	}
	x, err := index.LoadFile(args[0])
	if err != nil {
		fatal(err)
	}
	src, err1 := strconv.ParseInt(args[1], 10, 32)
	dst, err2 := strconv.ParseInt(args[2], 10, 32)
	if err1 != nil || err2 != nil {
		fatal(fmt.Errorf("reach: src and dst must be integers"))
	}
	start := time.Now()
	ok := x.Reach(int32(src), int32(dst))
	elapsed := time.Since(start)
	fmt.Printf("%d -> %d: %t (%s)\n", src, dst, ok, elapsed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcindex:", err)
	os.Exit(1)
}
