// Command tcquery runs a single transitive closure query with one of the
// studied algorithms and prints the full metric record — the one-query
// microscope the experiments are built from.
//
// The input graph is either generated (-n/-f/-l/-seed) or read from a file
// of "src dst" lines (-input). Examples:
//
//	tcquery -alg btc -n 2000 -f 5 -l 200 -m 20
//	tcquery -alg jkb2 -n 2000 -f 5 -l 20 -sources 3,250,1999 -m 10
//	tcquery -alg srch -input graph.txt -sources 1 -show
//	tcquery -index graph.idx -sources 1 -show   # prebuilt index, zero page I/O
//	tcquery -alg hyb -n 2000 -sources 3,250 -trace   # append the span tree as JSON
//	tcquery -n 50 -mutate insert:1:40,delete:3:4 -sources 1 -show
//	tcquery -n 2000 -plan -planobs btc:5:120,srch:40:900   # adaptive ranking, seeded
//
// With -planobs, the static -plan table is followed by the adaptive
// planner's ranking after seeding its observation store with the given
// alg:latency_ms:page_io[:count] samples — an offline microscope on how
// much evidence it takes to overturn the paper's cost model for this
// graph shape (see docs/PLANNER.md).
//
// With -mutate, the graph is loaded into an offline copy of the dynamic
// mutation service (the same code path tcserve -mutable runs): the
// comma-separated insert:from:to / delete:from:to ops are applied as one
// batch, a generational rebuild folds in any closure-shrinking deletes,
// and the successor sets of -sources come from the mutated index. The
// printed fingerprint matches what a mutable server would report after
// the same batch, so offline runs can be diffed against a live fleet.
//
// With -trace the run carries a phase-span tracer and the nested span tree
// — query → restructure/compute → per-source — is printed as JSON after
// the metric record, each span annotated with its page-I/O delta. This is
// the offline end of the server's slow-query log: the logged replay
// command is a tcquery -trace invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/obsv"
	"tcstudy/internal/planner"
)

func main() {
	var (
		alg        = flag.String("alg", "btc", "algorithm: btc, hyb, bj, srch, spn, jkb, jkb2, seminaive, warren, schmitz, bitmatrix")
		n          = flag.Int("n", 2000, "number of nodes (generated input)")
		f          = flag.Int("f", 5, "average out-degree (generated input)")
		l          = flag.Int("l", 200, "generation locality (generated input)")
		seed       = flag.Int64("seed", 1, "generator seed")
		input      = flag.String("input", "", "read arcs from file of \"src dst\" lines instead of generating")
		dbDir      = flag.String("db", "", "open a saved database directory instead of building one")
		saveDir    = flag.String("savedb", "", "after building the database, save it to this directory")
		sources    = flag.String("sources", "", "comma-separated source nodes; empty = full closure")
		m          = flag.Int("m", 10, "buffer pool pages")
		pagePolicy = flag.String("pagepolicy", "lru", "page replacement policy")
		listPolicy = flag.String("listpolicy", "smallest", "list replacement policy")
		ilimit     = flag.Float64("ilimit", 0, "HYB diagonal block fraction of the pool")
		indexFile  = flag.String("index", "", "answer from this prebuilt reachability index (tcindex build) instead of running the engine")
		show       = flag.Bool("show", false, "print the computed successor sets")
		plan       = flag.Bool("plan", false, "print the planner's cost estimates before running")
		planObs    = flag.String("planobs", "", "seed the adaptive planner with alg:lat_ms:io[:count],... observations and print its ranking after the -plan table")
		agg        = flag.String("agg", "", "run a generalized-closure aggregate instead: minhops, maxhops, pathcount")
		trace      = flag.Bool("trace", false, "record phase spans and print the span tree as JSON after the metric record")
		mutate     = flag.String("mutate", "", "apply comma-separated insert:from:to / delete:from:to ops through the dynamic service, then answer -sources from the mutated index")
	)
	flag.Parse()

	if *indexFile != "" {
		runIndexQuery(*indexFile, *sources, *show)
		return
	}

	var db *core.Database
	if *dbDir != "" {
		var err error
		if db, err = core.OpenDatabase(*dbDir); err != nil {
			fatal(err)
		}
	} else {
		var arcs []graph.Arc
		nodes := *n
		if *input != "" {
			var err error
			arcs, nodes, err = graph.ReadArcFile(*input)
			if err != nil {
				fatal(err)
			}
		} else {
			var err error
			arcs, err = graphgen.Generate(graphgen.Params{Nodes: *n, OutDegree: *f, Locality: *l, Seed: *seed})
			if err != nil {
				fatal(err)
			}
		}
		db = core.NewDatabase(nodes, arcs)
	}
	if *saveDir != "" {
		if err := core.SaveDatabase(db, *saveDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "database saved to %s\n", *saveDir)
	}

	var q core.Query
	if *sources != "" {
		for _, part := range strings.Split(*sources, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				fatal(fmt.Errorf("bad source %q: %v", part, err))
			}
			if v < 1 {
				fatal(fmt.Errorf("source node %d is not positive: nodes are numbered from 1", v))
			}
			if v > int64(db.N()) {
				fatal(fmt.Errorf("source node %d outside the graph: nodes are 1..%d", v, db.N()))
			}
			q.Sources = append(q.Sources, int32(v))
		}
	}

	if *mutate != "" {
		runMutateQuery(db, *mutate, q.Sources, *show)
		return
	}

	if *plan || *planObs != "" {
		arcs, err := db.Arcs()
		if err != nil {
			fatal(err)
		}
		prof, err := planner.BuildProfile(graph.New(db.N(), arcs), 16, 1)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("planner profile: H=%.1f W=%.1f reach~%.0f\n", prof.H, prof.W, prof.Reach)
		for _, e := range planner.Estimates(prof, len(q.Sources), *m) {
			fmt.Printf("  %-10s est. %8.0f I/O  (%s)\n", e.Alg, e.IO, e.Why)
		}
		if *planObs != "" {
			printAdaptivePlan(*planObs, prof, len(q.Sources), *m)
		}
		fmt.Println()
	}

	cfg := core.Config{
		BufferPages: *m,
		PagePolicy:  *pagePolicy,
		ListPolicy:  *listPolicy,
		ILIMIT:      *ilimit,
	}
	var tracer *obsv.Tracer
	if *trace {
		tracer = obsv.NewTracer()
		cfg.Trace = tracer.Start("query", obsv.KV("algorithm", *alg))
	}

	if *agg != "" {
		pres, err := core.RunPaths(db, core.PathAggregate(*agg), q, cfg)
		if err != nil {
			fatal(err)
		}
		mt := pres.Metrics
		fmt.Printf("aggregate            %s\n", mt.Algorithm)
		fmt.Printf("graph                n=%d |G|=%d\n", db.N(), db.NumArcs())
		fmt.Printf("query                %s\n", describe(q))
		fmt.Printf("total page I/O       %d (%d restructuring + %d computation)\n",
			mt.TotalIO(), mt.Restructure.Total(), mt.Compute.Total())
		fmt.Printf("aggregate entries    %d over %d unions\n", mt.DistinctTuples, mt.ListUnions)
		if *show {
			var keys []int32
			for k := range pres.Values {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				fmt.Printf("%d -> %d reachable nodes\n", k, len(pres.Values[k]))
			}
		}
		printTrace(tracer, cfg.Trace)
		return
	}

	res, err := core.Run(db, core.Algorithm(*alg), q, cfg)
	if err != nil {
		fatal(err)
	}

	mt := res.Metrics
	fmt.Printf("algorithm            %s\n", mt.Algorithm)
	fmt.Printf("graph                n=%d |G|=%d\n", db.N(), db.NumArcs())
	fmt.Printf("query                %s\n", describe(q))
	fmt.Printf("buffer               M=%d page=%s list=%s\n", *m, *pagePolicy, *listPolicy)
	fmt.Printf("restructure I/O      %d reads + %d writes = %d (%s)\n",
		mt.Restructure.Reads, mt.Restructure.Writes, mt.Restructure.Total(), mt.RestructureTime.Round(1e6))
	fmt.Printf("compute I/O          %d reads + %d writes = %d (%s)\n",
		mt.Compute.Reads, mt.Compute.Writes, mt.Compute.Total(), mt.ComputeTime.Round(1e6))
	fmt.Printf("total page I/O       %d (estimated I/O time %s at 20ms/page)\n",
		mt.TotalIO(), mt.EstimatedIOTime().Round(1e6))
	fmt.Printf("buffer hit ratio     %.3f (computation phase)\n", mt.ComputeBuffer.HitRatio())
	fmt.Printf("tuples generated     %d (%d duplicates)\n", mt.TuplesGenerated, mt.Duplicates)
	fmt.Printf("tuples materialized  %d (source tuples %d, selection efficiency %.3f)\n",
		mt.DistinctTuples, mt.SourceTuples, mt.SelectionEfficiency())
	fmt.Printf("successors fetched   %d\n", mt.SuccessorsFetched)
	fmt.Printf("list unions          %d\n", mt.ListUnions)
	fmt.Printf("arcs considered      %d, marked %d (%.1f%%)\n",
		mt.ArcsConsidered, mt.ArcsMarked, mt.MarkingPct())
	fmt.Printf("unmarked locality    %.2f\n", mt.AvgUnmarkedLocality())
	fmt.Printf("page splits          %d (lists moved %d, entries moved %d, overflows %d)\n",
		mt.Store.Splits, mt.Store.ListsMoved, mt.Store.EntriesMoved, mt.Store.Overflows)
	if mt.MagicNodes > 0 {
		fmt.Printf("magic graph          %d nodes, %d arcs, H=%.1f W=%.1f (free from restructuring, Theorem 2)\n",
			mt.MagicNodes, mt.MagicArcs, mt.MagicH, mt.MagicW)
	}
	printTrace(tracer, cfg.Trace)

	if *show {
		var keys []int32
		for k := range res.Successors {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			succ := res.Successors[k]
			sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
			fmt.Printf("%d -> %v\n", k, succ)
		}
	}
}

// printAdaptivePlan seeds a fresh adaptive planner with the -planobs
// observations and prints its blended ranking for this profile — the
// offline twin of tcserve's /v1/plan adaptive mode.
func printAdaptivePlan(spec string, prof planner.Profile, numSources, m int) {
	ad := planner.NewAdaptive(planner.Config{})
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 && len(fields) != 4 {
			fatal(fmt.Errorf("bad observation %q: want alg:lat_ms:io or alg:lat_ms:io:count", part))
		}
		latMS, err1 := strconv.ParseFloat(fields[1], 64)
		io, err2 := strconv.ParseInt(fields[2], 10, 64)
		count := 1
		var err3 error
		if len(fields) == 4 {
			count, err3 = strconv.Atoi(fields[3])
		}
		if err1 != nil || err2 != nil || err3 != nil || latMS < 0 || io < 0 || count < 1 {
			fatal(fmt.Errorf("bad observation %q: latency, I/O and count must be non-negative numbers", part))
		}
		lat := time.Duration(latMS * float64(time.Millisecond))
		for i := 0; i < count; i++ {
			ad.Observe(prof, numSources, m, core.Algorithm(fields[0]), lat, io)
		}
	}
	fmt.Println("adaptive ranking (seeded observations):")
	for _, d := range ad.Rank(prof, numSources, m) {
		line := fmt.Sprintf("  %-10s blended %8.0f  static %8.0f", d.Alg, d.Blended, d.IO)
		if d.Samples > 0 {
			line += fmt.Sprintf("  obs %.0f I/O / %s over %.1f samples",
				d.ObsIO, d.ObsLatency.Round(time.Millisecond), d.Samples)
		}
		fmt.Println(line)
	}
}

// runIndexQuery answers a source query from a prebuilt reachability index
// and prints the same summary shape as an engine run, so the two CLI paths
// compare apples to apples. Page I/O is zero by construction: the index
// answers entirely from its in-memory labels.
func runIndexQuery(path, sources string, show bool) {
	idx, err := index.LoadFile(path)
	if err != nil {
		fatal(err)
	}
	var srcs []int32
	if sources != "" {
		for _, part := range strings.Split(sources, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				fatal(fmt.Errorf("bad source %q: %v", part, err))
			}
			if v < 1 || v > int64(idx.N()) {
				fatal(fmt.Errorf("source node %d outside the graph: nodes are 1..%d", v, idx.N()))
			}
			srcs = append(srcs, int32(v))
		}
	}
	q := core.Query{Sources: srcs}
	effective := srcs
	if q.IsFull() {
		effective = make([]int32, idx.N())
		for i := range effective {
			effective[i] = int32(i + 1)
		}
	}
	start := time.Now()
	succ := make(map[int32][]int32, len(effective))
	var tuples int64
	for _, s := range effective {
		succ[s] = idx.Successors(s)
		tuples += int64(len(succ[s]))
	}
	elapsed := time.Since(start)
	fmt.Printf("algorithm            index (%s)\n", path)
	fmt.Printf("graph                n=%d |G|=%d\n", idx.N(), idx.NumArcs())
	fmt.Printf("query                %s\n", describe(q))
	fmt.Printf("total page I/O       0 (index answers from memory, %s)\n", elapsed.Round(time.Microsecond))
	fmt.Printf("tuples materialized  %d\n", tuples)
	if show {
		var keys []int32
		for k := range succ {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fmt.Printf("%d -> %v\n", k, succ[k])
		}
	}
}

// runMutateQuery feeds the loaded graph through the dynamic mutation
// service offline: one batch of parsed ops, a rebuild folding any
// closure-shrinking deletes, then the mutated index answers the sources.
func runMutateQuery(db *core.Database, spec string, sources []int32, show bool) {
	arcs, err := db.Arcs()
	if err != nil {
		fatal(err)
	}
	idx, err := index.Build(graph.New(db.N(), arcs))
	if err != nil {
		fatal(err)
	}
	fp, err := db.Fingerprint()
	if err != nil {
		fatal(err)
	}
	svc, err := dynamic.New(db.N(), arcs, idx, dynamic.Options{Manual: true, BaseFingerprint: fp})
	if err != nil {
		fatal(err)
	}
	defer svc.Close()

	ops, err := parseMutateSpec(spec, db.N())
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := svc.Apply(ops)
	if err != nil {
		fatal(err)
	}
	if res.Dirty {
		if err := svc.RebuildNow(); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)
	st := svc.Stats()

	fmt.Printf("mutation             %d ops: %d applied, %d no-ops (%s)\n",
		len(ops), res.Applied, res.Noops, elapsed.Round(time.Microsecond))
	if res.Merged > 0 {
		fmt.Printf("scc merges           %d components absorbed in place\n", res.Merged)
	}
	fmt.Printf("graph                n=%d |G|=%d\n", db.N(), st.NumArcs)
	fmt.Printf("generation           %d (seq %d)\n", st.Generation, st.Seq)
	fmt.Printf("fingerprint          %016x\n", st.Fingerprint)

	mutated := svc.Index()
	effective := sources
	if len(effective) == 0 {
		effective = make([]int32, db.N())
		for i := range effective {
			effective[i] = int32(i + 1)
		}
	}
	var tuples int64
	succ := make(map[int32][]int32, len(effective))
	for _, s := range effective {
		succ[s] = mutated.Successors(s)
		tuples += int64(len(succ[s]))
	}
	fmt.Printf("tuples materialized  %d\n", tuples)
	if show {
		var keys []int32
		for k := range succ {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fmt.Printf("%d -> %v\n", k, succ[k])
		}
	}
}

// parseMutateSpec parses "insert:1:40,delete:3:4" into a mutation batch.
func parseMutateSpec(spec string, n int) ([]dynamic.Op, error) {
	var ops []dynamic.Op
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad mutation %q: want op:from:to", part)
		}
		kind := fields[0]
		if kind != dynamic.OpInsert && kind != dynamic.OpDelete {
			return nil, fmt.Errorf("bad mutation %q: op must be insert or delete", part)
		}
		from, err1 := strconv.ParseInt(fields[1], 10, 32)
		to, err2 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad mutation %q: from and to must be integers", part)
		}
		if from < 1 || from > int64(n) || to < 1 || to > int64(n) {
			return nil, fmt.Errorf("bad mutation %q: nodes are 1..%d", part, n)
		}
		ops = append(ops, dynamic.Op{Op: kind, From: int32(from), To: int32(to)})
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("-mutate %q contains no ops", spec)
	}
	return ops, nil
}

// printTrace finishes the root span and prints the span tree as indented
// JSON. A nil tracer (no -trace flag) is a no-op.
func printTrace(tracer *obsv.Tracer, root *obsv.Span) {
	if tracer == nil {
		return
	}
	root.Finish()
	fmt.Println("trace:")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tracer.Records()); err != nil {
		fatal(err)
	}
	if d := tracer.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "tcquery: %d spans dropped (cap %d)\n", d, obsv.DefaultMaxSpans)
	}
}

func describe(q core.Query) string {
	if q.IsFull() {
		return "full transitive closure"
	}
	return fmt.Sprintf("partial closure of %d source nodes %v", len(q.Sources), q.Sources)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcquery:", err)
	os.Exit(1)
}
