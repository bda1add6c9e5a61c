// Command bench is the repository's benchmark: five named workloads that
// between them put every layer of the stack to work, each answer checked
// against an independent BFS oracle, with end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run.
//
//	go run ./bench --workload serve_cold --seed 1 --seconds 20 --trace 0
//	go run ./bench --seed 1                      # all five, one after another
//	go run ./bench --workload routed --trace 1   # traced: per-layer metrics, span file, layer probes
//	go run ./bench -compare a.json b.json        # judge b against a with BENCHMARK.json's bounds
//
// The last line a run prints for a workload is one JSON object with the
// keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: paper_grid, serve_hot, serve_cold, routed, mutate_mix or all")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", defaultSeconds, "length of the timed window of each workload")
		trace   = fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics, span file, layer probes")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for result and span files")
		compare = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		bounds  = fs.String("manifest", "BENCHMARK.json", "benchmark manifest the bounds are read from (-compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(*bounds, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: need --seconds > 0, --trace 0 or 1, and no other arguments")
		return 2
	}
	todo := workloads
	if *name != "all" {
		w := workloadNamed(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{*w}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, sc: fullScale}
	res := result{Schema: 1, Env: environment(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	code := 0
	for _, w := range todo {
		out, err := runWorkload(cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.Workloads = append(res.Workloads, out)
		for _, f := range out.Failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", w.name, f)
		}
		if !out.Correct {
			code = 1
		}
		printOutcome(stdout, cfg, w, out)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, cfg.seed, *trace))
	if err := res.write(path); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// The contract line comes last: the result of the (last) workload run.
	last := res.Workloads[len(res.Workloads)-1]
	fmt.Fprintf(stdout, "result file: %s\n", path)
	if err := json.NewEncoder(stdout).Encode(last.contractLine(cfg.trace)); err != nil {
		return 1
	}
	return code
}

// runWorkload runs one workload and, when traced, the layer probes after
// it, then writes the span file.
func runWorkload(cfg config, w workload) (*outcome, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	out, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		probes := newTracer(time.Now(), len(out.tracers))
		if err := runProbes(cfg, probes, out.layerValues); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		out.tracers = append(out.tracers, probes)
		out.SpanFile = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if out.Spans, err = writeSpans(out.SpanFile, out.tracers); err != nil {
			return nil, err
		}
		for _, t := range out.tracers {
			out.Dropped += t.dropped
		}
		if gap := out.layerValues["harness.attribution_gap_pct"]; gap > 5 {
			out.fail("layer parts miss the client latency by %.1f%% (limit 5%%)", gap)
		}
	}
	if err := out.seal(); err != nil {
		return nil, err
	}
	return out, nil
}

// printOutcome prints every metric of the run by name, with its unit and
// the number of samples behind it.
func printOutcome(w io.Writer, cfg config, wl workload, out *outcome) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%t  correct=%t attempted=%d failed=%d\n",
		out.Name, cfg.seed, cfg.seconds, cfg.trace, out.Correct, out.Attempted, out.Failed)
	fmt.Fprintf(w, "   light: %s; heavy: %s\n", wl.light, wl.heavy)
	if cfg.trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, out.PerLayer[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(w, "  %d spans written to %s (%d more recorded, past the file's cap)\n", out.Spans, out.SpanFile, out.Dropped)
		return
	}
	for _, d := range endToEnd {
		m := out.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-16s %14.4f %-4s n=%-8d segments=%s\n", d.Name, m.Value, d.Unit, m.Samples, fmtSegments(m.Segments))
	}
}

func fmtSegments(s []float64) string {
	if len(s) == 0 {
		return "whole window"
	}
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// env says where a result file was measured, so two files can be compared
// without guessing.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	Time       string `json:"time"`
}

func environment() env {
	commit := "unknown" // a checkout that is not a git repository has none
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// result is the schema of a result file.
type result struct {
	Schema    int        `json:"schema"`
	Env       env        `json:"env"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Trace     bool       `json:"trace"`
	Workloads []*outcome `json:"workloads"`
}

func (r *result) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// contractLine is the one JSON object a run ends with: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (o *outcome) contractLine(traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := o.EndToEnd
	if traced {
		src = o.PerLayer
	}
	metrics := make(map[string]value, len(src))
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics}
}
