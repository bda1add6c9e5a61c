package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
)

// newTestDispatcher serves the single default tenant with a substitute
// batch executor that needs no database.
func newTestDispatcher(exec func([]core.Request) []core.Response, workers, queueDepth int) *dispatcher {
	return newDispatcher(func(_ *core.Database, reqs []core.Request) []core.Response {
		return exec(reqs)
	}, []string{api.DefaultGraph}, workers, queueDepth)
}

// blockingExec is a controllable batch executor: each call signals started
// and waits for release, recording the batch it received.
type blockingExec struct {
	mu      sync.Mutex
	batches [][]core.Request
	started chan struct{}
	release chan struct{}
}

func newBlockingExec() *blockingExec {
	return &blockingExec{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *blockingExec) exec(reqs []core.Request) []core.Response {
	b.mu.Lock()
	b.batches = append(b.batches, reqs)
	b.mu.Unlock()
	b.started <- struct{}{}
	<-b.release
	out := make([]core.Response, len(reqs))
	for i := range out {
		out[i] = core.Response{Result: &core.Result{}}
	}
	return out
}

func (b *blockingExec) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sizes []int
	for _, batch := range b.batches {
		sizes = append(sizes, len(batch))
	}
	return sizes
}

func TestDispatcherSaturation(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 1, 1)
	defer func() { close(ex.release); d.Close() }()

	results := make(chan error, 2)
	submit := func() {
		_, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH})
		results <- err
	}
	// First job enters the (size-1) batch.
	go submit()
	<-ex.started
	// Second job sits in the (depth-1) queue while the batch blocks.
	go submit()
	waitQueue(t, d, 1)
	// Third submission finds the queue full: immediate rejection.
	if _, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("full queue returned %v, want ErrSaturated", err)
	}
}

func TestDispatcherQueueTimeout(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 1, 4)
	defer func() { close(ex.release); d.Close() }()

	go d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH}) //nolint:errcheck
	<-ex.started

	// A queued job whose deadline expires is answered without execution.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := d.SubmitTenant(ctx, api.DefaultGraph, nil, core.Request{Alg: core.BTC})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job returned %v, want deadline exceeded", err)
	}
}

func TestDispatcherSkipsExpiredJobs(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 4, 8)

	// Block the loop with one live job.
	go d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH}) //nolint:errcheck
	<-ex.started

	// Queue one already-cancelled job and one live one.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	go d.SubmitTenant(cancelled, api.DefaultGraph, nil, core.Request{Alg: core.BTC}) //nolint:errcheck
	done := make(chan error, 1)
	go func() {
		_, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.BJ})
		done <- err
	}()
	waitQueue(t, d, 2)

	// Release the first batch; the next batch must contain only the live
	// job — the cancelled one never reaches the engine.
	ex.release <- struct{}{}
	<-ex.started
	ex.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("live job failed: %v", err)
	}
	close(ex.release)
	d.Close()
	for _, batch := range ex.batches {
		for _, req := range batch {
			if req.Alg == core.BTC {
				t.Fatal("cancelled job was dispatched to the engine")
			}
		}
	}
}

func TestDispatcherBatchesUpToWorkerLimit(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 3, 16)

	// Hold the loop in a first batch, then queue five more jobs.
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	submit()
	<-ex.started
	for i := 0; i < 5; i++ {
		submit()
	}
	waitQueue(t, d, 5)
	// Six jobs drain as batches of 1, 3 (the worker limit) and 2.
	ex.release <- struct{}{}
	<-ex.started
	ex.release <- struct{}{}
	<-ex.started
	ex.release <- struct{}{}
	wg.Wait()
	d.Close()
	total := 0
	for _, n := range ex.batchSizes() {
		if n > 3 {
			t.Fatalf("batch of %d exceeds worker limit 3", n)
		}
		total += n
	}
	if total != 6 {
		t.Fatalf("dispatched %d jobs, want 6", total)
	}
}

func TestDispatcherDrainsOnClose(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 2, 8)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH})
			errs <- err
		}()
	}
	// Wait until every job is either executing or queued, then close while
	// releasing batches: all four must complete.
	<-ex.started
	waitQueue(t, d, 2)
	go func() {
		for {
			select {
			case ex.release <- struct{}{}:
			case <-d.done:
				return
			}
		}
	}()
	d.Close()
	wg.Wait()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued job lost during drain: %v", err)
		}
	}
	// After close, admission refuses.
	if _, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: core.SRCH}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed dispatcher returned %v, want ErrClosed", err)
	}
}

// waitQueue waits until the dispatcher queues hold want jobs in total.
func waitQueue(t *testing.T, d *dispatcher, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for d.QueueDepth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d jobs (have %d)", want, d.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatcherTenantFairness pins the round-robin guarantee: a tenant
// flooding its own queue cannot starve another tenant's single job. With
// one worker, tenant A holds the engine and has more jobs queued; tenant
// B's lone job must run in the very next batch.
func TestDispatcherTenantFairness(t *testing.T) {
	ex := newBlockingExec()
	d := newDispatcher(func(_ *core.Database, reqs []core.Request) []core.Response {
		return ex.exec(reqs)
	}, []string{"a", "b"}, 1, 8)

	var wg sync.WaitGroup
	submit := func(tenant string, alg core.Algorithm) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.SubmitTenant(context.Background(), tenant, nil, core.Request{Alg: alg}); err != nil {
				t.Errorf("submit %s: %v", tenant, err)
			}
		}()
	}
	// Tenant A occupies the single worker, then floods its queue.
	submit("a", core.SRCH)
	<-ex.started
	for i := 0; i < 4; i++ {
		submit("a", core.SRCH)
	}
	waitQueue(t, d, 4)
	// Tenant B queues one job behind A's backlog.
	submit("b", core.BTC)
	waitQueue(t, d, 5)

	// Release the running batch: the next batch must be tenant B's job,
	// not more of tenant A's backlog.
	ex.release <- struct{}{}
	<-ex.started
	ex.mu.Lock()
	second := ex.batches[1]
	ex.mu.Unlock()
	if len(second) != 1 || second[0].Alg != core.BTC {
		t.Fatalf("second batch %v is not tenant B's job: round-robin fairness violated", second)
	}
	// Drain the rest.
	go func() {
		for {
			select {
			case ex.release <- struct{}{}:
			case <-d.done:
				return
			}
		}
	}()
	wg.Wait()
	d.Close()
}

// TestDispatcherPerTenantSaturation pins that queue bounds are per tenant:
// one tenant's full queue rejects only that tenant.
func TestDispatcherPerTenantSaturation(t *testing.T) {
	ex := newBlockingExec()
	d := newDispatcher(func(_ *core.Database, reqs []core.Request) []core.Response {
		return ex.exec(reqs)
	}, []string{"a", "b"}, 1, 1)
	defer func() { close(ex.release); d.Close() }()

	// Tenant A: one job executing, one queued — its quota is spent.
	go d.SubmitTenant(context.Background(), "a", nil, core.Request{Alg: core.SRCH}) //nolint:errcheck
	<-ex.started
	go d.SubmitTenant(context.Background(), "a", nil, core.Request{Alg: core.SRCH}) //nolint:errcheck
	waitQueue(t, d, 1)
	if _, err := d.SubmitTenant(context.Background(), "a", nil, core.Request{Alg: core.SRCH}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("tenant A over quota returned %v, want ErrSaturated", err)
	}
	// Tenant B's queue is untouched: admission succeeds.
	done := make(chan error, 1)
	go func() {
		_, err := d.SubmitTenant(context.Background(), "b", nil, core.Request{Alg: core.BTC})
		done <- err
	}()
	waitQueue(t, d, 2)
	if got := d.TenantQueueDepth("b"); got != 1 {
		t.Fatalf("tenant B queue depth %d, want 1", got)
	}
	ex.release <- struct{}{}
	<-ex.started
	ex.release <- struct{}{}
	<-ex.started
	ex.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("tenant B job failed under tenant A saturation: %v", err)
	}
}
