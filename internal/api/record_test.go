package api

import (
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/graphgen"
)

// TestRecordDerivedFieldsAreCoreFormulas checks the one definition of the
// derived fields from both directions: a converted engine record carries
// exactly what core.Metrics computes, and merging records recomputes them
// from the summed counters — including the paper's 20 ms per I/O — rather
// than carrying or averaging a shard's values.
func TestRecordDerivedFieldsAreCoreFormulas(t *testing.T) {
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 200, OutDegree: 4, Locality: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(200, arcs)
	var records []Record
	var sum core.Metrics
	for _, sources := range [][]int32{{3, 40}, {90}} {
		res, err := core.Run(db, core.BTC, core.Query{Sources: sources}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		r := RecordOf(m)
		if r.TotalIO != m.TotalIO() || r.BufferHitRatio != m.ComputeBuffer.HitRatio() ||
			r.MarkingPct != m.MarkingPct() || r.SelectionEfficiency != m.SelectionEfficiency() ||
			r.UnmarkedLocality != m.AvgUnmarkedLocality() || r.EstimatedIOMS != ms(m.EstimatedIOTime()) {
			t.Fatalf("RecordOf(%v) derived fields differ from core's: %+v", sources, r)
		}
		records = append(records, r)
		sum.Restructure.Reads += m.Restructure.Reads
		sum.Restructure.Writes += m.Restructure.Writes
		sum.Compute.Reads += m.Compute.Reads
		sum.Compute.Writes += m.Compute.Writes
		sum.ComputeBuffer.Hits += m.ComputeBuffer.Hits
		sum.ComputeBuffer.Misses += m.ComputeBuffer.Misses
		sum.ArcsConsidered += m.ArcsConsidered
		sum.ArcsMarked += m.ArcsMarked
		sum.SourceTuples += m.SourceTuples
		sum.DistinctTuples += m.DistinctTuples
	}
	got := Merge(records)
	if got.TotalIO != sum.TotalIO() || got.BufferHitRatio != sum.ComputeBuffer.HitRatio() ||
		got.MarkingPct != sum.MarkingPct() || got.SelectionEfficiency != sum.SelectionEfficiency() ||
		got.EstimatedIOMS != ms(sum.EstimatedIOTime()) {
		t.Fatalf("Merge derived fields differ from core's formulas over the summed counters: %+v", got)
	}
	if got.MarkingPct == 0 || got.BufferHitRatio == 0 {
		t.Fatalf("workload too small to exercise the ratios: %+v", got)
	}
}
