// Command tcserve serves reachability queries over HTTP/JSON. It loads or
// generates a database at startup, then exposes the engine through the
// internal/server pipeline: bounded-queue admission into a worker pool,
// an LRU result cache with single-flight deduplication, per-request
// deadlines, and live metrics. Endpoints:
//
//	POST /v1/query            run one closure query, full metric record
//	GET  /v1/reach?src=&dst=  boolean reachability fast path
//	POST /v1/arc              mutate the graph (-mutable): insert/delete arc batches
//	GET  /v1/plan             planner ranking for the loaded graph
//	GET  /healthz             liveness + graph shape
//	GET  /metrics             Prometheus text format (?format=json for the JSON snapshot)
//	GET  /debug/traces        span trees of recent requests, newest first
//
// Examples:
//
//	tcserve -addr :8080 -n 2000 -f 5 -l 200
//	tcserve -addr :8080 -db /var/lib/tc/db -workers 16 -cache 1024
//	tcserve -addr :8080 -n 2000 -index g.idx   # O(1) /v1/reach via tcindex build
//	tcserve -addr :8080 -n 2000 -mutable       # read/write graph service
//	tcserve -addr :8080 -graphs social=/var/lib/tc/social,citations=/var/lib/tc/cite
//	tcserve -addr :8080 -pprof localhost:6060
//	tcserve -addr :8080 -n 2000 -slowlog 250ms -tracebuf 256
//
// With -graphs, one process hosts several named graphs: requests pick a
// tenant with the graph= query parameter (or the "graph" body field), each
// tenant gets its own result-cache quota, admission queue and adaptive
// planner, and /metrics carries tenant labels. The first listed graph is
// the default tenant. -db/-index/-mutable are single-graph flags and
// conflict with -graphs.
//
// /v1/plan is adaptive by default: the static cost model blended with
// per-tenant execution observations (decayed by -decay, explored with
// probability -explore). -adaptive=false restores the pure static
// ranking. See docs/PLANNER.md.
//
// With -index, GET /v1/reach is answered from the prebuilt reachability
// index (zero page I/O, no engine work); without one it goes through the
// engine.
//
// With -mutable, the server becomes a read/write graph service: POST
// /v1/arc accepts insert/delete batches, cycle-creating inserts merge SCCs
// in the live index, closure-shrinking deletes trigger background
// generational rebuilds while a delta overlay keeps answers exact, and
// /healthz carries the live fingerprint, sequence and generation so
// tcrouter can replicate writes and exclude lagging replicas. See
// docs/DYNAMIC.md.
//
// Requests are traced by default (-tracebuf 64 recent span trees behind
// /debug/traces; 0 disables). With -slowlog, every request over the
// threshold is logged with its phase I/O split and a tcquery command line
// that replays the same engine work offline. See docs/OBSERVABILITY.md.
//
// SIGINT/SIGTERM shut the server down gracefully: listeners close first,
// then in-flight and queued queries drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the separate -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/planner"
	"tcstudy/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		n          = flag.Int("n", 2000, "number of nodes (generated input)")
		f          = flag.Int("f", 5, "average out-degree (generated input)")
		l          = flag.Int("l", 200, "generation locality (generated input)")
		seed       = flag.Int64("seed", 1, "generator seed")
		dbDir      = flag.String("db", "", "open a saved database directory instead of generating")
		workers    = flag.Int("workers", 8, "engine slots: max queries executing concurrently")
		queue      = flag.Int("queue", 64, "admission queue depth (full queue rejects with 429)")
		cacheSize  = flag.Int("cache", 256, "result cache entries")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		m          = flag.Int("m", 10, "default buffer pool pages per query")
		pagePolicy = flag.String("pagepolicy", "lru", "default page replacement policy")
		listPolicy = flag.String("listpolicy", "smallest", "default list replacement policy")
		indexFile  = flag.String("index", "", "serve /v1/reach from this prebuilt reachability index (tcindex build)")
		pprofAddr  = flag.String("pprof", "", "expose net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
		traceBuf   = flag.Int("tracebuf", 64, "recent request span trees kept for /debug/traces (0 disables tracing)")
		slowLog    = flag.Duration("slowlog", 0, "log requests slower than this with span tree and replay command (0 disables)")
		mutable    = flag.Bool("mutable", false, "accept POST /v1/arc mutations; /v1/reach serves the live graph")
		maxBatch   = flag.Int("maxbatch", 1024, "max ops per mutation batch (-mutable)")
		maxPending = flag.Int("maxpending", 256, "mutation batches allowed past the sealed index before 429 (-mutable)")
		graphsSpec = flag.String("graphs", "", "serve several named graphs: name=dbdir,name=dbdir,... (first is the default tenant)")
		adaptive   = flag.Bool("adaptive", true, "blend /v1/plan with per-tenant execution observations")
		explore    = flag.Float64("explore", 0, "adaptive planner exploration probability (epsilon-greedy, 0 disables)")
		decay      = flag.Float64("decay", 0, "adaptive planner observation decay (0 selects the default 0.9)")
	)
	flag.Parse()

	// Either -graphs or the single-graph flags name the tenants; everything
	// after is one start-up path. replayArgs reconstructs the default
	// tenant's graph for slow-query log entries: tcquery <replayArgs>
	// <request flags> -trace reruns the same engine work offline.
	var (
		graphs     []server.NamedGraph
		db         *core.Database
		replayArgs string
	)
	switch {
	case *graphsSpec != "":
		if *dbDir != "" || *indexFile != "" || *mutable {
			fatal(errors.New("-graphs conflicts with the single-graph flags -db, -index and -mutable"))
		}
		graphs, replayArgs = openGraphs(*graphsSpec)
	case *dbDir != "":
		var err error
		if db, err = core.OpenDatabase(*dbDir); err != nil {
			fatal(err)
		}
		log.Printf("opened database %s: n=%d |G|=%d", *dbDir, db.N(), db.NumArcs())
		replayArgs = fmt.Sprintf("-db %s", *dbDir)
	default:
		arcs, err := graphgen.Generate(graphgen.Params{Nodes: *n, OutDegree: *f, Locality: *l, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		db = core.NewDatabase(*n, arcs)
		log.Printf("generated database: n=%d F=%d l=%d seed=%d |G|=%d", *n, *f, *l, *seed, db.NumArcs())
		replayArgs = fmt.Sprintf("-n %d -f %d -l %d -seed %d", *n, *f, *l, *seed)
	}

	// -index and -mutable are single-graph flags (db is set).
	var idx *index.Index
	if *indexFile != "" {
		var err error
		if idx, err = index.LoadFile(*indexFile); err != nil {
			fatal(err)
		}
		if idx.N() != db.N() {
			fatal(fmt.Errorf("index %s covers %d nodes but the database has %d", *indexFile, idx.N(), db.N()))
		}
		log.Printf("loaded index %s (%s decomposition, k=%d chains): /v1/reach served in O(1) with zero page I/O",
			*indexFile, idx.Builder(), idx.Chains())
	}

	var dyn *dynamic.Service
	if *mutable {
		arcs, err := db.Arcs()
		if err != nil {
			fatal(err)
		}
		base := idx
		if base == nil {
			// No prebuilt index: seal generation zero ourselves.
			if base, err = index.Build(graph.New(db.N(), arcs)); err != nil {
				fatal(err)
			}
		}
		fp, err := db.Fingerprint()
		if err != nil {
			fatal(err)
		}
		dyn, err = dynamic.New(db.N(), arcs, base, dynamic.Options{
			BaseFingerprint: fp,
			MaxBatchOps:     *maxBatch,
			MaxPending:      *maxPending,
		})
		if err != nil {
			fatal(err)
		}
		defer dyn.Close()
		log.Printf("mutable graph service: POST /v1/arc enabled (maxbatch=%d maxpending=%d)", *maxBatch, *maxPending)
	}
	if db != nil {
		graphs = []server.NamedGraph{{DB: db, Index: idx}}
	}

	srv, err := server.NewMulti(graphs, server.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		DefaultTimeout: *timeout,
		DefaultConfig: core.Config{
			BufferPages: *m,
			PagePolicy:  *pagePolicy,
			ListPolicy:  *listPolicy,
		},
		Dynamic:     dyn,
		Planner:     planner.Config{Decay: *decay, Epsilon: *explore},
		StaticPlan:  !*adaptive,
		TraceBuffer: *traceBuf,
		SlowQuery:   *slowLog,
		ReplayArgs:  replayArgs,
	})
	if err != nil {
		fatal(err)
	}
	if *graphsSpec != "" {
		log.Printf("tcserve listening on %s serving %d graphs %v (default %s, workers=%d queue=%d/tenant cache=%d/tenant)",
			*addr, len(graphs), srv.Graphs(), graphs[0].Name, *workers, *queue, *cacheSize)
	} else {
		log.Printf("tcserve listening on %s (workers=%d queue=%d cache=%d timeout=%s)",
			*addr, *workers, *queue, *cacheSize, *timeout)
	}
	runHTTP(*addr, *pprofAddr, srv)
}

// openGraphs opens the -graphs tenants, name=dbdir,... via
// core.OpenDatabase; the first listed is the default tenant, which the
// returned replay fragment describes.
func openGraphs(spec string) (graphs []server.NamedGraph, replayArgs string) {
	for _, part := range strings.Split(spec, ",") {
		name, dir, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || dir == "" {
			fatal(fmt.Errorf("-graphs entry %q is not name=dbdir", part))
		}
		db, err := core.OpenDatabase(dir)
		if err != nil {
			fatal(fmt.Errorf("graph %s: %w", name, err))
		}
		log.Printf("opened graph %s from %s: n=%d |G|=%d", name, dir, db.N(), db.NumArcs())
		if len(graphs) == 0 {
			replayArgs = fmt.Sprintf("-db %s", dir)
		}
		graphs = append(graphs, server.NamedGraph{Name: name, DB: db})
	}
	return graphs, replayArgs
}

// runHTTP runs the serving lifecycle: listen, optional pprof sidecar, and
// graceful SIGINT/SIGTERM shutdown draining in-flight queries.
func runHTTP(addr, pprofAddr string, srv *server.Server) {
	httpSrv := &http.Server{Addr: addr, Handler: srv}

	// pprof registers on http.DefaultServeMux; the main listener serves the
	// query mux only, so profiling never leaks onto the public address.
	if pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight queries")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("tcserve stopped cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcserve:", err)
	os.Exit(1)
}
