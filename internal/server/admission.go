package server

import (
	"context"
	"errors"
	"sync"

	"tcstudy/internal/core"
)

// Admission control. The engine's unit of safe concurrency is the
// core.RunConcurrent batch: queries of one batch run in parallel over one
// shared database, and each request's temporary files are released the
// moment that request finishes. The dispatcher serves continuous traffic
// as a sequence of batches drawn from per-tenant FIFO queues: it picks the
// next tenant with waiting jobs in round-robin order, fills one batch from
// that tenant's queue up to the worker limit (a batch never mixes tenants
// — it runs over a single database), runs it, and repeats. Round-robin
// across tenants is the fairness guarantee multi-graph serving needs: a
// tenant flooding its queue delays only its own jobs, never another
// tenant's turn.
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

// job is one admitted query waiting for a batch slot.
type job struct {
	req  core.Request
	db   *core.Database
	ctx  context.Context
	done chan core.Response // buffered; the batch loop never blocks on it
}

// dispatcher is the bounded worker-pool admission controller.
type dispatcher struct {
	exec    func(db *core.Database, reqs []core.Request) []core.Response
	workers int // max queries per batch, i.e. peak engine concurrency
	depth   int // per-tenant queue bound
	done    chan struct{}
	closing sync.Once

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]*job
	order  []string // round-robin order over tenants
	rr     int      // next tenant index to consider
	queued int      // total jobs across all queues
	closed bool
}

// QueueDepth is the number of jobs currently waiting across all tenant
// queues (not counting jobs already placed in a running batch).
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

// newDispatcher builds a dispatcher with one bounded queue per tenant
// name, executing batches with exec (core.RunConcurrent outside tests).
func newDispatcher(exec func(*core.Database, []core.Request) []core.Response, tenants []string, workers, queueDepth int) *dispatcher {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	d := &dispatcher{
		exec:    exec,
		workers: workers,
		depth:   queueDepth,
		done:    make(chan struct{}),
		queues:  make(map[string][]*job, len(tenants)),
		order:   append([]string(nil), tenants...),
	}
	d.cond = sync.NewCond(&d.mu)
	for _, t := range tenants {
		d.queues[t] = nil
	}
	go d.loop()
	return d
}

// SubmitTenant admits one query into the named tenant's queue and blocks
// until its result is ready, the context expires, or the queue rejects it.
// A query whose submitter times out may still execute (the engine's runs
// are not interruptible); its result then lands in the cache for the
// retry.
func (d *dispatcher) SubmitTenant(ctx context.Context, tenant string, db *core.Database, req core.Request) (*core.Result, error) {
	j := &job{req: req, db: db, ctx: ctx, done: make(chan core.Response, 1)}
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
	d.cond.Signal()
	d.mu.Unlock()
	select {
	case resp := <-j.done:
		return resp.Result, resp.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops admission and waits for every already-queued job to finish:
// the shutdown drain.
func (d *dispatcher) Close() {
	d.closing.Do(func() {
		d.mu.Lock()
		d.closed = true
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	<-d.done
}

func (d *dispatcher) loop() {
	defer close(d.done)
	for {
		batch := d.nextBatch()
		if batch == nil {
			return
		}
		d.run(batch)
	}
}

// nextBatch blocks until some tenant has queued jobs, then takes up to the
// worker limit from the next non-empty tenant queue in round-robin order.
// After Close it keeps draining whatever is already queued and returns nil
// only once every queue is empty.
func (d *dispatcher) nextBatch() []*job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for i := 0; i < len(d.order); i++ {
			name := d.order[(d.rr+i)%len(d.order)]
			q := d.queues[name]
			if len(q) == 0 {
				continue
			}
			n := len(q)
			if n > d.workers {
				n = d.workers
			}
			batch := append([]*job(nil), q[:n]...)
			d.queues[name] = q[:copy(q, q[n:])]
			d.queued -= n
			d.rr = (d.rr + i + 1) % len(d.order)
			return batch
		}
		if d.closed {
			return nil
		}
		d.cond.Wait()
	}
}

// run executes one batch. Jobs whose context expired while queued are
// answered without touching the engine. All jobs of a batch belong to one
// tenant and therefore share one database.
func (d *dispatcher) run(batch []*job) {
	live := batch[:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			j.done <- core.Response{Err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	reqs := make([]core.Request, len(live))
	for i, j := range live {
		reqs[i] = j.req
	}
	resps := d.exec(live[0].db, reqs)
	for i, j := range live {
		j.done <- resps[i]
	}
}
