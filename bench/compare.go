package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the contract this benchmark is run under.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// verdicts of one (workload, metric) row.
const (
	pass       = "pass"
	regress    = "REGRESS"    // worse by more than the bound: the only verdict that fails the comparison
	worse      = "worse"      // within the bound, yet every candidate segment is worse than every base segment
	unresolved = "unresolved" // within the bound, but a file's own spread is wider than the bound
)

// judge compares one end-to-end metric of the candidate (b) with the base
// (a). A move in the bad direction past the bound is a regression. Within
// the bound the row passes unless the files themselves say otherwise: when
// the two sets of segment values do not even overlap the move is real and
// the row is flagged worse (the bounds are wide on a shared box; segments
// inside one run are not), and when either file's segment-to-segment spread
// exceeds the bound the pair cannot show the metric unchanged.
func judge(d metricDef, a, b Metric) string {
	if a.Value == 0 {
		return unresolved
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	switch {
	case sign*(b.Value-a.Value)/a.Value > d.Bound:
		return regress
	case len(a.Segments) > 1 && len(b.Segments) > 1 &&
		slices.Min(scaled(b.Segments, sign)) > slices.Max(scaled(a.Segments, sign)):
		return worse
	case quartileSpread(a.Segments) > d.Bound || quartileSpread(b.Segments) > d.Bound:
		return unresolved
	}
	return pass
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = by * x
	}
	return out
}

// compareFiles prints one row per (workload, metric) present in both files
// and returns 1 if any end-to-end metric regressed past its bound.
func compareFiles(manifestPath, pathA, pathB string, stdout, stderr io.Writer) int {
	m, err := readManifest(manifestPath)
	var a, b *result
	if err == nil {
		a, err = readResult(pathA)
	}
	if err == nil {
		b, err = readResult(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(m, a, b, stdout)
}

func compareResults(m *manifest, a, b *result, stdout io.Writer) int {
	fmt.Fprintf(stdout, "base:      seed=%d seconds=%g commit=%s go=%s nproc=%d\n", a.Seed, a.Seconds, a.Env.Commit, a.Env.GoVersion, a.Env.NProc)
	fmt.Fprintf(stdout, "candidate: seed=%d seconds=%g commit=%s go=%s nproc=%d\n", b.Seed, b.Seconds, b.Env.Commit, b.Env.GoVersion, b.Env.NProc)
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Env.NProc != b.Env.NProc {
		fmt.Fprintln(stdout, "warning: the files differ in seed, window or machine; timings are not like for like")
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tchange (of base)\tbound\tverdict")
	code := 0
	byName := func(r *result) map[string]*outcome {
		by := make(map[string]*outcome, len(r.Workloads))
		for _, w := range r.Workloads {
			by[w.Name] = w
		}
		return by
	}
	inB := byName(b)
	for _, wa := range a.Workloads {
		wb := inB[wa.Name]
		if wb == nil {
			continue
		}
		for _, d := range m.EndToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(d, ma, mb)
			if verdict == regress {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%+.1f%% of %.4f\t%.0f%% worse\t%s\n",
				wa.Name, d.Name, ma.Value, d.Unit, mb.Value, d.Unit,
				100*ratio(mb.Value-ma.Value, ma.Value), ma.Value, 100*d.Bound, verdict)
		}
		// Per-layer metrics carry no bound: they explain a move, they do
		// not gate it. Rows that did not move are left out.
		for _, d := range m.PerLayer {
			ma, mb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if ma.Value == mb.Value {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%+.1f%% of %.4f\t-\tinfo\n",
				wa.Name, d.Name, ma.Value, d.Unit, mb.Value, d.Unit,
				100*ratio(mb.Value-ma.Value, ma.Value), ma.Value)
		}
		if !wb.Correct {
			fmt.Fprintf(tw, "%s\tcorrect\t%t\t%t\t%d of %d failed\t0\t%s\n", wa.Name, wa.Correct, wb.Correct, wb.Failed, wb.Attempted, regress)
			code = 1
		}
	}
	tw.Flush()
	return code
}
