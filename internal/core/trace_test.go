package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcstudy/internal/obsv"
)

// goldenPhaseIO is the per-phase page I/O parsed back out of
// testdata/metrics.golden for one algorithm.
type goldenPhaseIO struct {
	restructure PhaseIO
	compute     PhaseIO
}

// parseGoldenIO extracts the restructure_io/compute_io lines of the golden
// metric records, keyed by algorithm.
func parseGoldenIO(t *testing.T) map[Algorithm]goldenPhaseIO {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatalf("reading golden metrics: %v", err)
	}
	out := make(map[Algorithm]goldenPhaseIO)
	var cur Algorithm
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			cur = Algorithm(strings.Trim(line, "[]"))
		case strings.HasPrefix(line, "restructure_io"):
			g := out[cur]
			if _, err := fmt.Sscanf(line, "restructure_io   reads=%d writes=%d",
				&g.restructure.Reads, &g.restructure.Writes); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			out[cur] = g
		case strings.HasPrefix(line, "compute_io"):
			g := out[cur]
			if _, err := fmt.Sscanf(line, "compute_io       reads=%d writes=%d",
				&g.compute.Reads, &g.compute.Writes); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			out[cur] = g
		}
	}
	return out
}

// TestSpanIOReconcilesWithGolden pins the tracing layer's core guarantee:
// for every algorithm, the page-I/O deltas captured on the phase spans sum
// to exactly the phase totals of the metric record — and both match the
// golden records committed in testdata/metrics.golden. A span that missed
// a page, double-counted one, or snapshotted the wrong pool would break
// this equality.
func TestSpanIOReconcilesWithGolden(t *testing.T) {
	const seed, n, f, l = 424242, 120, 4, 30 // the golden test's graph
	_, db := randomDAG(t, seed, n, f, l)
	golden := parseGoldenIO(t)
	if len(golden) == 0 {
		t.Fatal("no records parsed from metrics.golden")
	}

	for _, alg := range Algorithms() {
		want, ok := golden[alg]
		if !ok {
			t.Fatalf("%s: no golden record", alg)
		}
		tr := obsv.NewTracer()
		root := tr.Start("query", obsv.KV("algorithm", string(alg)))
		cfg := Config{BufferPages: 10, ILIMIT: 0.4, Trace: root}
		res, err := Run(db, alg, Query{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		root.Finish()

		rec := tr.Records()[0]
		restr := rec.SumIO("restructure")
		comp := rec.SumIO("compute")

		// Spans vs the live metric record.
		m := res.Metrics
		if restr.Reads != m.Restructure.Reads || restr.Writes != m.Restructure.Writes {
			t.Errorf("%s: restructure spans %+v != record %+v", alg, restr, m.Restructure)
		}
		if comp.Reads != m.Compute.Reads || comp.Writes != m.Compute.Writes {
			t.Errorf("%s: compute spans %+v != record %+v", alg, comp, m.Compute)
		}
		if comp.Hits != m.ComputeBuffer.Hits || comp.Misses != m.ComputeBuffer.Misses ||
			comp.Evicts != m.ComputeBuffer.Evicts {
			t.Errorf("%s: compute span buffer stats (%d/%d/%d) != record (%d/%d/%d)",
				alg, comp.Hits, comp.Misses, comp.Evicts,
				m.ComputeBuffer.Hits, m.ComputeBuffer.Misses, m.ComputeBuffer.Evicts)
		}

		// Spans vs the committed golden file.
		if restr.Reads != want.restructure.Reads || restr.Writes != want.restructure.Writes {
			t.Errorf("%s: restructure spans reads=%d writes=%d, golden reads=%d writes=%d",
				alg, restr.Reads, restr.Writes, want.restructure.Reads, want.restructure.Writes)
		}
		if comp.Reads != want.compute.Reads || comp.Writes != want.compute.Writes {
			t.Errorf("%s: compute spans reads=%d writes=%d, golden reads=%d writes=%d",
				alg, comp.Reads, comp.Writes, want.compute.Reads, want.compute.Writes)
		}

		// The trace changes nothing about the work: the traced run's record
		// must equal the untraced run's.
		plain, err := Run(db, alg, Query{}, Config{BufferPages: 10, ILIMIT: 0.4})
		if err != nil {
			t.Fatalf("%s untraced: %v", alg, err)
		}
		if goldenRecord(plain.Metrics) != goldenRecord(res.Metrics) {
			t.Errorf("%s: traced and untraced runs produced different records", alg)
		}
	}
}

// TestSRCHSourceSpans checks the per-source expansion spans: one per
// source, nested in the compute phase, their I/O summing to the phase's.
func TestSRCHSourceSpans(t *testing.T) {
	_, db := randomDAG(t, 11, 150, 4, 30)
	sources := []int32{5, 60, 120}
	tr := obsv.NewTracer()
	root := tr.Start("query")
	_, err := Run(db, SRCH, Query{Sources: sources},
		Config{BufferPages: 10, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.Finish()

	rec := tr.Records()[0]
	var srcSpans []obsv.Record
	rec.Visit(func(r obsv.Record) {
		if r.Name == "source" {
			srcSpans = append(srcSpans, r)
		}
	})
	if len(srcSpans) != len(sources) {
		t.Fatalf("got %d source spans, want %d", len(srcSpans), len(sources))
	}
	perSource := rec.SumIO("source")
	phase := rec.SumIO("compute")
	// The compute phase does slightly more than the per-source loops (the
	// final flush of source lists), so the nested spans are bounded by it.
	if perSource.Reads > phase.Reads || perSource.Writes > phase.Writes {
		t.Errorf("source spans %+v exceed compute phase %+v", perSource, phase)
	}
	for i, s := range srcSpans {
		if s.Attrs["node"] != sources[i] {
			t.Errorf("source span %d annotates node %v, want %d", i, s.Attrs["node"], sources[i])
		}
	}
}
