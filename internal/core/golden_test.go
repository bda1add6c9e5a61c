package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRecord renders every deterministic field of a metric record.
// Wall-clock times are excluded; everything else — page I/O by phase,
// buffer behaviour, tuple and duplicate counts, magic-graph shape,
// storage-engine events — is pinned exactly.
func goldenRecord(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]\n", m.Algorithm)
	fmt.Fprintf(&b, "restructure_io   reads=%d writes=%d\n", m.Restructure.Reads, m.Restructure.Writes)
	fmt.Fprintf(&b, "compute_io       reads=%d writes=%d\n", m.Compute.Reads, m.Compute.Writes)
	fmt.Fprintf(&b, "compute_buffer   hits=%d misses=%d evicts=%d\n",
		m.ComputeBuffer.Hits, m.ComputeBuffer.Misses, m.ComputeBuffer.Evicts)
	fmt.Fprintf(&b, "tuples           generated=%d duplicates=%d distinct=%d source=%d\n",
		m.TuplesGenerated, m.Duplicates, m.DistinctTuples, m.SourceTuples)
	fmt.Fprintf(&b, "expansion        fetched=%d unions=%d considered=%d marked=%d\n",
		m.SuccessorsFetched, m.ListUnions, m.ArcsConsidered, m.ArcsMarked)
	fmt.Fprintf(&b, "magic            nodes=%d arcs=%d h=%.4f w=%.4f\n",
		m.MagicNodes, m.MagicArcs, m.MagicH, m.MagicW)
	fmt.Fprintf(&b, "store            splits=%d moved=%d entries=%d overflows=%d\n",
		m.Store.Splits, m.Store.ListsMoved, m.Store.EntriesMoved, m.Store.Overflows)
	fmt.Fprintf(&b, "derived          marking_pct=%.4f selection=%.4f unmarked_loc=%.4f\n",
		m.MarkingPct(), m.SelectionEfficiency(), m.AvgUnmarkedLocality())
	return b.String()
}

// TestGoldenMetrics pins the complete metric record of every algorithm on
// a fixed graph and configuration. Any behaviour change in the engine —
// an extra page read, a different split decision, a changed duplicate
// count — shows up as a golden diff and must be a deliberate choice
// (regenerate with `go test ./internal/core -run Golden -update`).
func TestGoldenMetrics(t *testing.T) {
	const seed, n, f, l = 424242, 120, 4, 30
	_, db := randomDAG(t, seed, n, f, l)
	cfg := Config{BufferPages: 10, ILIMIT: 0.4}

	var b strings.Builder
	fmt.Fprintf(&b, "# Metric record per algorithm: seed=%d n=%d f=%d l=%d m=%d ilimit=%g\n",
		seed, n, f, l, cfg.BufferPages, cfg.ILIMIT)
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/core -run Golden -update\n\n")
	for _, alg := range Algorithms() {
		res, err := Run(db, alg, Query{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		b.WriteString(goldenRecord(res.Metrics))
		b.WriteString("\n")

		// The record itself must be deterministic run to run, or the
		// golden file would flap.
		again, err := Run(db, alg, Query{}, cfg)
		if err != nil {
			t.Fatalf("%s rerun: %v", alg, err)
		}
		if goldenRecord(again.Metrics) != goldenRecord(res.Metrics) {
			t.Fatalf("%s: metric record differs between identical runs", alg)
		}
	}
	goldenConfigurations(t, db, cfg, &b)
	got := b.String()

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric records diverge from %s.\nIf the change is intentional, regenerate with -update.\n%s",
			path, diffLines(string(want), got))
	}
}

// goldenConfigurations appends the records the full-closure section above
// cannot reach: a selection (the write-out of source lists only, BJ's
// single-parent reduction, SPN's and JKB's trees on a magic subgraph), HYB
// with blocking off, the marking ablation, and the path aggregates. Each
// header carries the variant after the algorithm name, so the plain [alg]
// headers stay unique to the first section.
func goldenConfigurations(t *testing.T, db *Database, cfg Config, b *strings.Builder) {
	ptc := Query{Sources: []int32{3, 17, 29, 44, 58, 71, 86, 102}}
	shape := func(q Query) string {
		if q.IsFull() {
			return "ctc"
		}
		return "ptc"
	}
	write := func(m Metrics, variant string) {
		b.WriteString(strings.Replace(goldenRecord(m), "]", " "+variant+"]", 1))
		b.WriteString("\n")
	}
	run := func(alg Algorithm, q Query, cfg Config, variant string) {
		t.Helper()
		res, err := Run(db, alg, q, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		write(res.Metrics, shape(q)+variant)
	}
	paths := func(db *Database, agg PathAggregate, q Query) {
		t.Helper()
		res, err := RunPaths(db, agg, q, cfg)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		write(res.Metrics, shape(q))
	}

	fmt.Fprintf(b, "# Selection (ptc): sources=%v, same graph and configuration\n\n", ptc.Sources)
	for _, alg := range Algorithms() {
		run(alg, ptc, cfg, "")
	}

	fmt.Fprintf(b, "# HYB with blocking off (the paper's best setting, Figure 6)\n\n")
	noBlock := cfg
	noBlock.ILIMIT = 0
	run(HYB, Query{}, noBlock, " ilimit=0")
	run(HYB, ptc, noBlock, " ilimit=0")

	fmt.Fprintf(b, "# Marking off (DisableMarking)\n\n")
	noMark := cfg
	noMark.DisableMarking = true
	for _, alg := range []Algorithm{BTC, SPN} {
		run(alg, Query{}, noMark, " nomark")
		run(alg, ptc, noMark, " nomark")
	}

	fmt.Fprintf(b, "# Path aggregates (RunPaths); minweight runs over the same arcs, weighted\n\n")
	_, wdb := weightedDB(t, 424242, 120, 4, 30)
	for _, q := range []Query{{}, ptc} {
		paths(db, MinHops, q)
		paths(db, PathCount, q)
		paths(wdb, MinWeight, q)
	}
}

// diffLines reports the first few differing lines between two texts.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  golden: %s\n  got:    %s\n", i+1, wl, gl)
			if shown++; shown == 8 {
				b.WriteString("  ...\n")
				break
			}
		}
	}
	return b.String()
}
