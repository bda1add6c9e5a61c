package server

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/obsv"
)

// Request tracing. Every traced request records its span tree — query →
// phase → per-source — into a bounded ring exposed at GET /debug/traces,
// newest first. Requests slower than the configured
// threshold are additionally written to the slow-query log together with a
// tcquery command line that replays the exact engine work offline.

// TraceEntry is one traced request as served by /debug/traces and printed
// (in condensed form) by the slow-query log.
type TraceEntry struct {
	Time         time.Time     `json:"time"`
	Endpoint     string        `json:"endpoint"`
	Algorithm    string        `json:"algorithm,omitempty"`
	Graph        string        `json:"graph,omitempty"`
	Sources      []int32       `json:"sources,omitempty"`
	Cached       bool          `json:"cached,omitempty"`
	Deduplicated bool          `json:"deduplicated,omitempty"`
	IndexHit     bool          `json:"index_hit,omitempty"`
	Slow         bool          `json:"slow,omitempty"`
	Error        string        `json:"error,omitempty"`
	ElapsedMS    float64       `json:"elapsed_ms"`
	Replay       string        `json:"replay,omitempty"`
	Spans        []obsv.Record `json:"spans,omitempty"`
}

// ring keeps the most recent values added to it and counts every add. The
// trace ring and the latency window are both one. Zero capacity disables
// recording entirely; add and snapshot are then free.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	total int64
}

func newRing[T any](capacity int) *ring[T] { return &ring[T]{buf: make([]T, max(capacity, 0))} }

func (r *ring[T]) enabled() bool { return r != nil && len(r.buf) > 0 }

func (r *ring[T]) add(v T) {
	if !r.enabled() {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained values, newest first, and how many were
// ever added.
func (r *ring[T]) snapshot() ([]T, int64) {
	if !r.enabled() {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(min(r.total, int64(len(r.buf))))
	out := make([]T, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out, r.total
}

// replayCommand builds a tcquery invocation reproducing one request's
// engine work: the graph flags come from the server's startup configuration
// (Options.ReplayArgs), the rest from the executed request. The command
// replays the engine work, not the serving path — cache state and admission
// cannot be reproduced offline, page I/O and phase structure can.
func replayCommand(graphArgs string, req core.Request) string {
	var b strings.Builder
	b.WriteString("tcquery")
	if graphArgs != "" {
		b.WriteString(" ")
		b.WriteString(graphArgs)
	}
	fmt.Fprintf(&b, " -alg %s", req.Alg)
	if len(req.Query.Sources) > 0 {
		parts := make([]string, len(req.Query.Sources))
		for i, s := range req.Query.Sources {
			parts[i] = fmt.Sprint(s)
		}
		fmt.Fprintf(&b, " -sources %s", strings.Join(parts, ","))
	}
	fmt.Fprintf(&b, " -m %d", req.Cfg.BufferPages)
	if req.Cfg.PagePolicy != "" {
		fmt.Fprintf(&b, " -pagepolicy %s", req.Cfg.PagePolicy)
	}
	if req.Cfg.ListPolicy != "" {
		fmt.Fprintf(&b, " -listpolicy %s", req.Cfg.ListPolicy)
	}
	if req.Cfg.ILIMIT != 0 {
		fmt.Fprintf(&b, " -ilimit %g", req.Cfg.ILIMIT)
	}
	b.WriteString(" -trace")
	return b.String()
}

// slowLogLine condenses a trace entry into one log line: outcome, timing,
// the phase-level I/O split, and the replay command.
func slowLogLine(e TraceEntry, threshold time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slow query: endpoint=%s", e.Endpoint)
	if e.Algorithm != "" {
		fmt.Fprintf(&b, " algorithm=%s", e.Algorithm)
	}
	fmt.Fprintf(&b, " sources=%d elapsed=%.1fms threshold=%s",
		len(e.Sources), e.ElapsedMS, threshold)
	if e.Cached {
		b.WriteString(" cached=true")
	}
	if e.Deduplicated {
		b.WriteString(" deduplicated=true")
	}
	if e.Error != "" {
		fmt.Fprintf(&b, " error=%q", e.Error)
	}
	for _, root := range e.Spans {
		for _, phase := range []string{"restructure", "compute"} {
			io := root.SumIO(phase)
			if io.Total() > 0 {
				fmt.Fprintf(&b, " %s_io=%d", phase, io.Reads+io.Writes)
			}
		}
	}
	if e.Replay != "" {
		fmt.Fprintf(&b, " replay=%q", e.Replay)
	}
	return b.String()
}
