package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"tcstudy/internal/core"
)

// Admission control. The engine's unit of safe concurrency is one query:
// queries run in parallel over one shared, sealed database, each with its
// own buffer pool and temporary files (core.RunOne). The dispatcher serves
// continuous traffic through a fixed number of slots fed from per-tenant
// FIFO queues: whenever a slot is free it takes one job from the next
// tenant with waiting jobs in round-robin order, runs it, answers it the
// moment it finishes and takes the next. A slow query therefore holds one
// slot, never the whole engine. Round-robin across tenants is the fairness
// guarantee multi-graph serving needs: a tenant flooding its queue delays
// only its own jobs, never another tenant's turn.
//
// Each tenant's queue is bounded separately; a submission finding its
// tenant's queue full is rejected immediately (HTTP 429), which caps both
// memory and worst-case queueing delay per tenant — one tenant's overload
// cannot consume another tenant's admission quota.

// ErrSaturated is returned by Submit when the tenant's admission queue is
// full.
var ErrSaturated = errors.New("server: admission queue full")

// ErrClosed is returned by Submit after the dispatcher has been closed.
var ErrClosed = errors.New("server: dispatcher closed")

// job is one admitted query waiting for a slot.
type job struct {
	req  core.Request
	db   *core.Database
	ctx  context.Context
	enq  time.Time
	done chan core.Response // buffered; a slot never blocks on it
}

// dispatcher is the bounded worker-pool admission controller.
type dispatcher struct {
	exec    func(db *core.Database, req core.Request) core.Response
	waited  func(time.Duration) // observes enqueue → slot granted
	workers int                 // slots, i.e. peak engine concurrency
	depth   int                 // per-tenant queue bound
	slots   sync.WaitGroup      // live slot goroutines, for the Close drain

	mu       sync.Mutex
	queues   map[string][]*job
	order    []string // round-robin order over tenants
	rr       int      // next tenant index to consider
	queued   int      // total jobs across all queues
	inflight int      // slots in use
	closed   bool
}

// QueueDepth is the number of jobs currently waiting across all tenant
// queues (not counting jobs already running in a slot).
func (d *dispatcher) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queued
}

// TenantQueueDepth is the number of jobs waiting in one tenant's queue.
func (d *dispatcher) TenantQueueDepth(tenant string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queues[tenant])
}

// QueueCap is the per-tenant admission queue capacity.
func (d *dispatcher) QueueCap() int { return d.depth }

// Inflight is the number of slots currently running a job.
func (d *dispatcher) Inflight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inflight
}

// newDispatcher builds a dispatcher with one bounded queue per tenant
// name, executing each job with exec (core.RunOne outside tests) and
// reporting each job's admission wait to waited.
func newDispatcher(exec func(*core.Database, core.Request) core.Response, waited func(time.Duration), tenants []string, workers, queueDepth int) *dispatcher {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	d := &dispatcher{
		exec:    exec,
		waited:  waited,
		workers: workers,
		depth:   queueDepth,
		queues:  make(map[string][]*job, len(tenants)),
		order:   append([]string(nil), tenants...),
	}
	for _, t := range tenants {
		d.queues[t] = nil
	}
	return d
}

// SubmitTenant admits one query into the named tenant's queue and blocks
// until its result is ready, the context expires, or the queue rejects it.
// A query whose submitter times out may still execute (the engine's runs
// are not interruptible); its result then lands in the cache for the
// retry.
func (d *dispatcher) SubmitTenant(ctx context.Context, tenant string, db *core.Database, req core.Request) (*core.Result, error) {
	j := &job{req: req, db: db, ctx: ctx, enq: time.Now(), done: make(chan core.Response, 1)}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	q, ok := d.queues[tenant]
	if !ok {
		d.mu.Unlock()
		return nil, errors.New("server: unknown tenant queue " + tenant)
	}
	if len(q) >= d.depth {
		d.mu.Unlock()
		return nil, ErrSaturated
	}
	d.queues[tenant] = append(q, j)
	d.queued++
	if d.inflight < d.workers {
		// A free slot takes the job at once; otherwise a busy slot takes it
		// when it finishes what it is running.
		d.inflight++
		d.slots.Add(1)
		go d.slot()
	}
	d.mu.Unlock()
	select {
	case resp := <-j.done:
		return resp.Result, resp.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops admission and waits for every queued and running job to
// finish: the shutdown drain.
func (d *dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.slots.Wait()
}

// slot is one unit of engine concurrency: it runs waiting jobs one at a
// time, answering each as it finishes, and frees itself when no job is
// waiting. Jobs whose context expired while queued are answered without
// touching the engine. The slot takes its next job, or frees itself, before
// it answers the current one, so a client holding its reply never sees
// this slot still counted in Inflight.
func (d *dispatcher) slot() {
	defer d.slots.Done()
	for j := d.next(); j != nil; {
		var resp core.Response
		if err := j.ctx.Err(); err != nil {
			resp.Err = err
		} else {
			d.waited(time.Since(j.enq))
			resp = d.exec(j.db, j.req)
		}
		done := j.done
		j = d.next()
		done <- resp
	}
}

// next takes the oldest job of the next non-empty tenant queue in
// round-robin order. With nothing waiting it frees the caller's slot and
// returns nil; Close keeps draining until that happens on every slot.
func (d *dispatcher) next() *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.order {
		name := d.order[(d.rr+i)%len(d.order)]
		q := d.queues[name]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		q[0] = nil
		d.queues[name] = q[1:]
		d.queued--
		d.rr = (d.rr + i + 1) % len(d.order)
		return j
	}
	d.inflight--
	return nil
}
