// Command tcbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	tcbench -exp table2          # one experiment
//	tcbench -exp all             # the full evaluation
//	tcbench -list                # list experiment IDs
//	tcbench -exp fig8 -markdown  # markdown output (for EXPERIMENTS.md)
//	tcbench -exp all -nodes 500 -reps 1 -v   # quick shape-preserving run
//
// The repository's performance record is bench/ (see bench/README.md), not
// this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tcstudy/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID to run, or \"all\"")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		nodes    = flag.Int("nodes", 2000, "graph size n (paper: 2000)")
		seed     = flag.Int64("seed", 1, "graph generator seed")
		reps     = flag.Int("reps", 3, "random source sets averaged per selection query (paper: 5)")
		markdown = flag.Bool("markdown", false, "render tables as markdown")
		verbose  = flag.Bool("v", false, "print progress while running")
	)
	flag.Parse()

	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-20s %s\n", id, titles[id])
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	s := experiments.NewSuite()
	s.Nodes = *nodes
	s.Seed = *seed
	s.QueryReps = *reps
	if *verbose {
		s.Progress = func(line string) { fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), line) }
	}

	render := func(t *experiments.Table) {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Render())
		}
	}

	start := time.Now()
	if *exp == "all" {
		tables, err := s.RunAll()
		for _, t := range tables {
			render(t)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcbench:", err)
			os.Exit(1)
		}
	} else {
		t, err := s.Run(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcbench:", err)
			os.Exit(1)
		}
		render(t)
	}
	fmt.Fprintf(os.Stderr, "total time: %s\n", time.Since(start).Round(time.Millisecond))
}
