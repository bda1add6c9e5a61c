package main

import (
	"tcstudy/internal/core"
	"tcstudy/internal/router"
)

// metricDef declares one metric of the ledger. The lists below are the
// source of the names; BENCHMARK.json repeats them and bench_test.go holds
// the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Every end-to-end metric exists, and is never zero, on every workload. The
// latency metrics name an operation class, not an endpoint, and a role, not a
// statistic, because each workload has its own two classes and the statistic
// that is steady for them (see workloads.go and README.md). Every bound is
// the contract's largest: on the shared 2-core box this was sized on, whole
// runs drift by 10-15% over minutes as neighbours come and go. The light
// class's 99th percentile is not here but per-layer (harness.light_tail_ms):
// between equal runs it spreads wider than any bound the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"light_ms", "ms", "lower", 0.25},
	{"heavy_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// gridAlgs are the eight strategies of a paper_grid pass, in run order.
var gridAlgs = []core.Algorithm{
	core.BTC, core.BJ, core.HYB, core.SRCH, core.SPN, core.JKB2, core.SCHMITZ, core.BITM,
}

// perLayer lists the per-layer metrics, <module>.<metric>. A metric reads 0
// on a workload whose traffic never reaches that layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("graphgen.generate_ms", "ms"),

		lo("pagedisk.view_ns", "ns"), lo("pagedisk.read_ns", "ns"), lo("pagedisk.write_ns", "ns"),
		lo("pagedisk.reads_per_op", "count"), lo("pagedisk.writes_per_op", "count"),

		lo("buffer.get_hit_ns", "ns"), lo("buffer.get_miss_ns", "ns"),
		hi("buffer.hit_ratio", "ratio"), hi("buffer.hit_ratio_m50", "ratio"), lo("buffer.evicts_per_op", "count"),

		lo("relation.scan_ns_per_tuple", "ns"), lo("relation.probe_us", "us"),

		lo("slist.iterate_ns_per_entry", "ns"), lo("slist.append_ns_per_entry", "ns"),
		lo("slist.page_splits_per_op", "count"), lo("slist.entries_moved_per_op", "count"),

		lo("core.restructure_ms", "ms"), lo("core.compute_ms", "ms"),
		lo("core.ctc_pass_ms", "ms"), lo("core.ptc_pass_ms", "ms"),
	}
	for _, a := range gridAlgs {
		defs = append(defs, lo("core."+string(a)+".ms", "ms"), lo("core."+string(a)+".page_io", "count"))
	}
	defs = append(defs,
		lo("core.g4.ms", "ms"), lo("core.g6.ms", "ms"), lo("core.g11.ms", "ms"),
		lo("core.list_unions_per_op", "count"), lo("core.tuples_generated_per_op", "count"),
		lo("core.duplicates_per_op", "count"), hi("core.marking_pct", "%"), hi("core.selection_efficiency", "ratio"),
		lo("core.io_ratio_jkb2_btc.g4", "ratio"), lo("core.io_ratio_jkb2_btc.g11", "ratio"), lo("core.io_ratio_hyb_btc", "ratio"),
		lo("core.run_concurrent_batch8_ms", "ms"),

		lo("bitmatrix.dag_n512_ms", "ms"), lo("bitmatrix.dag_n2048_ms", "ms"), lo("bitmatrix.warren_n2048_ms", "ms"),
		lo("bitmatrix.fw_par2_n2048_ms", "ms"), lo("bitmatrix.word_ors_per_closure", "count"),

		lo("index.build_greedy_ms", "ms"), lo("index.build_kt_ms", "ms"), lo("index.save_ms", "ms"), lo("index.load_ms", "ms"),
		lo("index.reach_ns", "ns"), lo("index.successors_us", "us"),
		lo("index.bytes_per_node_greedy", "B"), lo("index.bytes_per_node_kt", "B"),
		lo("index.chains_greedy", "count"), lo("index.chains_kt", "count"),
		lo("index.insert_arc_us", "us"), lo("index.delete_redundant_us", "us"),
		lo("index.bytes_per_node_serving", "B"),

		lo("dynamic.apply_us", "us"), lo("dynamic.reach_clean_ns", "ns"), lo("dynamic.reach_dirty_us", "us"),
		lo("dynamic.rebuild_ms", "ms"), lo("dynamic.rebuilds", "count"), lo("dynamic.overlay_share", "ratio"),
		lo("dynamic.shrinking_delete_share", "ratio"), lo("dynamic.pending_max", "count"),
		lo("dynamic.backlog_rejects", "count"), hi("dynamic.mutations_applied", "count"),
		lo("dynamic.arc_drift_pct", "%"),

		lo("planner.profile_ms", "ms"), lo("planner.rank_us", "us"), lo("planner.observe_ns", "ns"),
		hi("planner.top1_hit_share", "ratio"),

		lo("server.handler_hit_us", "us"), lo("server.handler_miss_ms", "ms"), lo("server.handler_reach_us", "us"),
		lo("server.transport_us", "us"), lo("server.nonengine_ms", "ms"),
		hi("server.cache_hit_ratio", "ratio"), hi("server.index_hit_ratio", "ratio"), lo("server.rejected_429", "count"),
		lo("server.request_bytes_per_op", "B"), lo("server.response_bytes_per_op", "B"),

		lo("router.overhead_query_ms", "ms"), lo("router.overhead_reach_us", "us"),
		hi("router.r1_ops_per_s", "1/s"), hi("router.scaling_r3_over_r1", "ratio"),
		lo("router.shards_per_query", "count"), lo("router.subrequests_per_op", "count"),
		lo("router.retries", "count"), lo("router.hedges", "count"), lo("router.merge_us", "us"),

		lo("go.allocs_per_op", "count"), lo("go.alloc_bytes_per_op", "B"),
		lo("go.gc_cycles", "count"), lo("go.gc_pause_total_ms", "ms"),

		lo("harness.trace_overhead_pct", "%"), lo("harness.writer_late_ms", "ms"),
		lo("harness.fail_share", "ratio"), lo("harness.page_io_per_op", "count"),
		lo("harness.light_ms", "ms"), lo("harness.light_tail_ms", "ms"), lo("harness.heavy_ms", "ms"),
		lo("harness.encode_us", "us"), lo("harness.decode_us", "us"), lo("harness.verify_us", "us"),
		lo("harness.attribution_gap_pct", "%"),
	)
	return defs
}

// engineSums adds up what the engine reported for the queries it executed,
// in the shape tcserve puts it on the wire: the "metrics" record of an HTTP
// reply, or core.Result.Metrics converted by recordOf. Only the fields the
// layer metrics read are summed.
type engineSums struct{ r router.Record }

func (e *engineSums) add(r *router.Record) {
	s := &e.r
	s.RestructureReads += r.RestructureReads
	s.RestructureWrites += r.RestructureWrites
	s.ComputeReads += r.ComputeReads
	s.ComputeWrites += r.ComputeWrites
	s.BufferHits += r.BufferHits
	s.BufferMisses += r.BufferMisses
	s.BufferEvicts += r.BufferEvicts
	s.ListUnions += r.ListUnions
	s.TuplesGenerated += r.TuplesGenerated
	s.Duplicates += r.Duplicates
	s.ArcsConsidered += r.ArcsConsidered
	s.ArcsMarked += r.ArcsMarked
	s.SourceTuples += r.SourceTuples
	s.DistinctTuples += r.DistinctTuples
	s.PageSplits += r.PageSplits
	s.EntriesMoved += r.EntriesMoved
	s.RestructureMS += r.RestructureMS
	s.ComputeMS += r.ComputeMS
}

// recordOf is the in-process counterpart of a reply's metric record.
func recordOf(m *core.Metrics) *router.Record {
	return &router.Record{
		RestructureReads: m.Restructure.Reads, RestructureWrites: m.Restructure.Writes,
		ComputeReads: m.Compute.Reads, ComputeWrites: m.Compute.Writes,
		BufferHits: m.ComputeBuffer.Hits, BufferMisses: m.ComputeBuffer.Misses, BufferEvicts: m.ComputeBuffer.Evicts,
		ListUnions: m.ListUnions, TuplesGenerated: m.TuplesGenerated, Duplicates: m.Duplicates,
		ArcsConsidered: m.ArcsConsidered, ArcsMarked: m.ArcsMarked,
		SourceTuples: m.SourceTuples, DistinctTuples: m.DistinctTuples,
		PageSplits: m.Store.Splits, EntriesMoved: m.Store.EntriesMoved,
		RestructureMS: ms(m.RestructureTime), ComputeMS: ms(m.ComputeTime),
	}
}

func (e *engineSums) pageIO() int64 {
	return e.r.RestructureReads + e.r.RestructureWrites + e.r.ComputeReads + e.r.ComputeWrites
}

func (e *engineSums) hitRatio() float64 {
	return ratio(float64(e.r.BufferHits), float64(e.r.BufferHits+e.r.BufferMisses))
}

func (e *engineSums) selectionEfficiency() float64 {
	return ratio(float64(e.r.SourceTuples), float64(e.r.DistinctTuples))
}

// layerCounts writes the per-operation engine counters every workload
// shares; ops is the number of verified operations they are spread over.
func (e *engineSums) layerCounts(out map[string]float64, ops int64) {
	per := func(v int64) float64 { return ratio(float64(v), float64(ops)) }
	r := &e.r
	out["pagedisk.reads_per_op"] = per(r.RestructureReads + r.ComputeReads)
	out["pagedisk.writes_per_op"] = per(r.RestructureWrites + r.ComputeWrites)
	out["harness.page_io_per_op"] = per(e.pageIO())
	out["buffer.evicts_per_op"] = per(r.BufferEvicts)
	out["slist.page_splits_per_op"] = per(r.PageSplits)
	out["slist.entries_moved_per_op"] = per(r.EntriesMoved)
	out["core.list_unions_per_op"] = per(r.ListUnions)
	out["core.tuples_generated_per_op"] = per(r.TuplesGenerated)
	out["core.duplicates_per_op"] = per(r.Duplicates)
	out["core.marking_pct"] = 100 * ratio(float64(r.ArcsMarked), float64(r.ArcsConsidered))
	out["core.selection_efficiency"] = e.selectionEfficiency()
	out["buffer.hit_ratio"] = e.hitRatio()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
