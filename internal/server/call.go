package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/obsv"
)

// call is the lifecycle of one /v1/query, /v1/reach or /v1/arc request: the
// bookkeeping all three owe — the in-flight gauge, the request counters,
// one latency observation, one elapsed_ms, one trace entry — written once,
// so that each handler is decode → validate → accept → answer → ok. It
// lives on the handler's stack; an untraced request allocates nothing for
// it.
type call struct {
	s     *Server
	w     http.ResponseWriter
	start time.Time
	tn    *tenant    // the accepted request's tenant; nil before accept, and for /v1/arc
	root  *obsv.Span // nil unless the request is traced
	entry TraceEntry
}

// begin starts the clock and counts the request in flight until end, which
// the handler defers.
func (s *Server) begin(w http.ResponseWriter) call {
	s.met.InFlight.Add(1)
	return call{s: s, w: w, start: time.Now()}
}

func (c *call) end() { c.s.met.InFlight.Add(-1) }

// accept marks the request validated. A failure before it is the client's
// and leaves no trace; from here on the request is the server's to explain,
// so when tracing is on it gets a root span and a trace entry naming the
// endpoint and (on a multi-graph server) the tenant. It reports
// whether the request is traced: the handler builds span attributes and
// entry fields only then.
func (c *call) accept(endpoint string, tn *tenant) bool {
	c.tn = tn
	if c.s.tracing() {
		c.root = obsv.NewTracer().Start(endpoint)
		c.entry.Endpoint = endpoint
		if tn != nil {
			c.entry.Graph = c.s.responseGraph(tn)
		}
	}
	return c.root != nil
}

// fail answers with err's status and counts it (Server.fail); an accepted,
// traced request also leaves its trace entry, carrying the error.
func (c *call) fail(err error) {
	if c.root != nil {
		c.entry.Error = err.Error()
		c.finishTrace(time.Since(c.start))
	}
	c.s.fail(c.w, c.tn, err)
}

// ok serves the request: counted for its endpoint (globally and, where the
// endpoint has a tenant series, for the tenant), observed once in the
// latency window, traced, and answered with respond's body — which is
// handed the one elapsed_ms the reply and the trace entry share.
func (c *call) ok(global, tenant *atomic.Int64, respond func(elapsedMS float64) any) {
	global.Add(1)
	if tenant != nil {
		tenant.Add(1)
	}
	elapsed := time.Since(c.start)
	c.s.met.ObserveLatency(elapsed)
	c.finishTrace(elapsed)
	api.WriteJSON(c.w, http.StatusOK, respond(millis(elapsed)))
}

// finishTrace closes a traced request's root span, records the entry in
// the trace ring, and emits the slow-query log line when over threshold.
func (c *call) finishTrace(elapsed time.Duration) {
	if c.root == nil {
		return
	}
	s, e := c.s, &c.entry
	c.root.Finish()
	e.Time = time.Now()
	e.ElapsedMS = millis(elapsed)
	e.Spans = []obsv.Record{c.root.Record()}
	if s.opts.SlowQuery > 0 && elapsed >= s.opts.SlowQuery {
		e.Slow = true
		s.met.SlowQueries.Add(1)
		s.opts.SlowLogf("%s", slowLogLine(*e, s.opts.SlowQuery))
	}
	s.traces.add(*e)
}
