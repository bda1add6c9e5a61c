package api

import (
	"time"

	"tcstudy/internal/core"
)

// Record is the JSON shape of the paper's full measurement record
// (core.Metrics) as served in a QueryResponse.
type Record struct {
	RestructureReads  int64   `json:"restructure_reads"`
	RestructureWrites int64   `json:"restructure_writes"`
	ComputeReads      int64   `json:"compute_reads"`
	ComputeWrites     int64   `json:"compute_writes"`
	TotalIO           int64   `json:"total_io"`
	BufferHits        int64   `json:"buffer_hits"`
	BufferMisses      int64   `json:"buffer_misses"`
	BufferEvicts      int64   `json:"buffer_evicts"`
	BufferHitRatio    float64 `json:"buffer_hit_ratio"`

	TuplesGenerated   int64 `json:"tuples_generated"`
	Duplicates        int64 `json:"duplicates"`
	DistinctTuples    int64 `json:"distinct_tuples"`
	SourceTuples      int64 `json:"source_tuples"`
	SuccessorsFetched int64 `json:"successors_fetched"`
	ListUnions        int64 `json:"list_unions"`
	ArcsConsidered    int64 `json:"arcs_considered"`
	ArcsMarked        int64 `json:"arcs_marked"`

	MarkingPct          float64 `json:"marking_pct"`
	SelectionEfficiency float64 `json:"selection_efficiency"`
	UnmarkedLocality    float64 `json:"unmarked_locality"`

	MagicNodes int64   `json:"magic_nodes,omitempty"`
	MagicArcs  int64   `json:"magic_arcs,omitempty"`
	MagicH     float64 `json:"magic_h,omitempty"`
	MagicW     float64 `json:"magic_w,omitempty"`

	PageSplits   int64 `json:"page_splits"`
	ListsMoved   int64 `json:"lists_moved"`
	EntriesMoved int64 `json:"entries_moved"`
	Overflows    int64 `json:"overflows"`

	RestructureMS float64 `json:"restructure_ms"`
	ComputeMS     float64 `json:"compute_ms"`
	EstimatedIOMS float64 `json:"estimated_io_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RecordOf converts an engine metric record to its wire shape.
func RecordOf(m core.Metrics) Record {
	r := Record{
		RestructureReads:  m.Restructure.Reads,
		RestructureWrites: m.Restructure.Writes,
		ComputeReads:      m.Compute.Reads,
		ComputeWrites:     m.Compute.Writes,
		BufferHits:        m.ComputeBuffer.Hits,
		BufferMisses:      m.ComputeBuffer.Misses,
		BufferEvicts:      m.ComputeBuffer.Evicts,
		TuplesGenerated:   m.TuplesGenerated,
		Duplicates:        m.Duplicates,
		DistinctTuples:    m.DistinctTuples,
		SourceTuples:      m.SourceTuples,
		SuccessorsFetched: m.SuccessorsFetched,
		ListUnions:        m.ListUnions,
		ArcsConsidered:    m.ArcsConsidered,
		ArcsMarked:        m.ArcsMarked,
		UnmarkedLocality:  m.AvgUnmarkedLocality(),
		MagicNodes:        m.MagicNodes,
		MagicArcs:         m.MagicArcs,
		MagicH:            m.MagicH,
		MagicW:            m.MagicW,
		PageSplits:        m.Store.Splits,
		ListsMoved:        m.Store.ListsMoved,
		EntriesMoved:      m.Store.EntriesMoved,
		Overflows:         m.Store.Overflows,
		RestructureMS:     ms(m.RestructureTime),
		ComputeMS:         ms(m.ComputeTime),
	}
	r.derive()
	return r
}

// derive fills the fields that are functions of the counters, by core's
// own formulas: a record on the wire and a merged record can only agree
// with the engine's if there is one definition of total I/O, the hit
// ratio, marking %, selection efficiency and the paper's 20 ms per I/O.
func (r *Record) derive() {
	var m core.Metrics
	m.Restructure = core.PhaseIO{Reads: r.RestructureReads, Writes: r.RestructureWrites}
	m.Compute = core.PhaseIO{Reads: r.ComputeReads, Writes: r.ComputeWrites}
	m.ComputeBuffer.Hits, m.ComputeBuffer.Misses = r.BufferHits, r.BufferMisses
	m.ArcsConsidered, m.ArcsMarked = r.ArcsConsidered, r.ArcsMarked
	m.SourceTuples, m.DistinctTuples = r.SourceTuples, r.DistinctTuples
	r.TotalIO = m.TotalIO()
	r.BufferHitRatio = m.ComputeBuffer.HitRatio()
	r.MarkingPct = m.MarkingPct()
	r.SelectionEfficiency = m.SelectionEfficiency()
	r.EstimatedIOMS = ms(m.EstimatedIOTime())
}

// Merge folds the records of sub-queries that ran concurrently over
// disjoint source slices (tcrouter's shards) into one record. Additive
// counters sum, so the merged record is honest about the total work
// performed. Per-phase wall times and the magic-graph dimensions take the
// maximum, because the sub-queries ran side by side over their own
// subgraphs. The derived fields are recomputed from the merged counters
// rather than averaged, so they stay exact. It is a pure function
// of its inputs so a differential test can apply it to records obtained
// from a single server and compare byte for byte.
func Merge(records []Record) Record {
	if len(records) == 0 {
		return Record{}
	}
	m := records[0]
	// Unmarked locality is a per-union mean whose sample count is not part
	// of the wire record; the union count is its closest proxy, so the
	// merge takes the union-weighted mean (exact when every union touched
	// an unmarked arc, the common case).
	locSum := m.UnmarkedLocality * float64(m.ListUnions)
	for _, r := range records[1:] {
		m.RestructureReads += r.RestructureReads
		m.RestructureWrites += r.RestructureWrites
		m.ComputeReads += r.ComputeReads
		m.ComputeWrites += r.ComputeWrites
		m.BufferHits += r.BufferHits
		m.BufferMisses += r.BufferMisses
		m.BufferEvicts += r.BufferEvicts

		m.TuplesGenerated += r.TuplesGenerated
		m.Duplicates += r.Duplicates
		m.DistinctTuples += r.DistinctTuples
		m.SourceTuples += r.SourceTuples
		m.SuccessorsFetched += r.SuccessorsFetched
		m.ListUnions += r.ListUnions
		m.ArcsConsidered += r.ArcsConsidered
		m.ArcsMarked += r.ArcsMarked
		locSum += r.UnmarkedLocality * float64(r.ListUnions)

		m.MagicNodes += r.MagicNodes
		m.MagicArcs += r.MagicArcs
		m.MagicH = max(m.MagicH, r.MagicH)
		m.MagicW = max(m.MagicW, r.MagicW)

		m.PageSplits += r.PageSplits
		m.ListsMoved += r.ListsMoved
		m.EntriesMoved += r.EntriesMoved
		m.Overflows += r.Overflows

		m.RestructureMS = max(m.RestructureMS, r.RestructureMS)
		m.ComputeMS = max(m.ComputeMS, r.ComputeMS)
	}
	m.derive()
	m.UnmarkedLocality = 0
	if m.ListUnions > 0 {
		m.UnmarkedLocality = locSum / float64(m.ListUnions)
	}
	return m
}
