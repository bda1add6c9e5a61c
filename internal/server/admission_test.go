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
// executor that needs no database.
func newTestDispatcher(exec func(core.Request) core.Response, workers, queueDepth int) *dispatcher {
	return newTenantDispatcher(exec, []string{api.DefaultGraph}, workers, queueDepth)
}

func newTenantDispatcher(exec func(core.Request) core.Response, tenants []string, workers, queueDepth int) *dispatcher {
	return newDispatcher(func(_ *core.Database, req core.Request) core.Response { return exec(req) },
		func(time.Duration) {}, tenants, workers, queueDepth)
}

// submitDefault submits one job of the given algorithm to the default
// tenant with a background context.
func submitDefault(d *dispatcher, alg core.Algorithm) error {
	_, err := d.SubmitTenant(context.Background(), api.DefaultGraph, nil, core.Request{Alg: alg})
	return err
}

// blockingExec is a controllable executor: each call signals started and
// waits for one release, recording the request it received and how many
// calls were running at once.
type blockingExec struct {
	mu       sync.Mutex
	seen     []core.Request // in the order they reached the engine
	running  int
	peak     int
	finished int
	started  chan struct{}
	release  chan struct{}
}

func newBlockingExec() *blockingExec {
	return &blockingExec{
		started: make(chan struct{}, 64), // more than any test submits: exec never blocks on it
		release: make(chan struct{}),
	}
}

func (b *blockingExec) exec(req core.Request) core.Response {
	b.mu.Lock()
	b.seen = append(b.seen, req)
	b.running++
	if b.running > b.peak {
		b.peak = b.running
	}
	b.mu.Unlock()
	b.started <- struct{}{}
	<-b.release
	b.mu.Lock()
	b.running--
	b.finished++
	b.mu.Unlock()
	return core.Response{Result: &core.Result{}}
}

// releaseUntil keeps releasing blocked exec calls until stop is closed.
func (b *blockingExec) releaseUntil(stop <-chan struct{}) {
	for {
		select {
		case b.release <- struct{}{}:
		case <-stop:
			return
		}
	}
}

func TestDispatcherSaturation(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 1, 1)
	defer func() { close(ex.release); d.Close() }()

	// First job takes the single slot.
	go submitDefault(d, core.SRCH) //nolint:errcheck
	<-ex.started
	// Second job sits in the (depth-1) queue while the slot is held.
	go submitDefault(d, core.SRCH) //nolint:errcheck
	waitQueue(t, d, 1)
	// Third submission finds the queue full: immediate rejection.
	if err := submitDefault(d, core.SRCH); !errors.Is(err, ErrSaturated) {
		t.Fatalf("full queue returned %v, want ErrSaturated", err)
	}
}

func TestDispatcherQueueTimeout(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 1, 4)
	defer func() { close(ex.release); d.Close() }()

	go submitDefault(d, core.SRCH) //nolint:errcheck
	<-ex.started

	// A queued job whose deadline expires is answered without execution.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := d.SubmitTenant(ctx, api.DefaultGraph, nil, core.Request{Alg: core.BTC})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued job returned %v, want deadline exceeded", err)
	}
}

// TestDispatcherSkipsExpiredJobs pins that a job whose context expired
// while it was queued is answered without ever reaching the engine.
func TestDispatcherSkipsExpiredJobs(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 1, 8)

	// Hold the only slot with one live job.
	go submitDefault(d, core.SRCH) //nolint:errcheck
	<-ex.started

	// Queue one job that is cancelled while it waits, and one live one.
	ctx, cancel := context.WithCancel(context.Background())
	expired := make(chan error, 1)
	go func() {
		_, err := d.SubmitTenant(ctx, api.DefaultGraph, nil, core.Request{Alg: core.BTC})
		expired <- err
	}()
	waitQueue(t, d, 1)
	cancel()
	if err := <-expired; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	live := make(chan error, 1)
	go func() { live <- submitDefault(d, core.BJ) }()
	waitQueue(t, d, 2)

	// Free the slot: it must pass over the cancelled job and run the live
	// one.
	ex.release <- struct{}{}
	<-ex.started
	ex.release <- struct{}{}
	if err := <-live; err != nil {
		t.Fatalf("live job failed: %v", err)
	}
	d.Close()
	for _, req := range ex.seen {
		if req.Alg == core.BTC {
			t.Fatal("cancelled job was dispatched to the engine")
		}
	}
}

// TestDispatcherConcurrencyEqualsWorkers pins what -workers means: with
// more jobs waiting than slots, exactly workers of them execute at once —
// every slot is used and none is exceeded.
func TestDispatcherConcurrencyEqualsWorkers(t *testing.T) {
	const workers, jobs = 3, 8
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, workers, 16)

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := submitDefault(d, core.SRCH); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	// All eight are admitted: three hold the slots, five wait.
	for i := 0; i < workers; i++ {
		<-ex.started
	}
	waitQueue(t, d, jobs-workers)
	if got := d.Inflight(); got != workers {
		t.Fatalf("%d slots in use with %d jobs waiting, want %d", got, jobs-workers, workers)
	}
	// Finish them one at a time: each freed slot is refilled from the queue.
	for i := 0; i < jobs; i++ {
		ex.release <- struct{}{}
	}
	wg.Wait()
	d.Close()
	if ex.peak != workers {
		t.Fatalf("peak engine concurrency %d, want exactly %d", ex.peak, workers)
	}
	if len(ex.seen) != jobs {
		t.Fatalf("dispatched %d jobs, want %d", len(ex.seen), jobs)
	}
	if got := d.Inflight(); got != 0 {
		t.Fatalf("%d slots still in use after the drain", got)
	}
}

// TestDispatcherNoHeadOfLineBlocking pins the work-conserving property: a
// fast job submitted while a slow one holds a slot takes a free slot and
// completes without waiting for the slow one.
func TestDispatcherNoHeadOfLineBlocking(t *testing.T) {
	slowStarted, releaseSlow := make(chan struct{}), make(chan struct{})
	d := newTestDispatcher(func(req core.Request) core.Response {
		if req.Alg == core.BJ {
			close(slowStarted)
			<-releaseSlow
		}
		return core.Response{Result: &core.Result{}}
	}, 2, 8)

	slow := make(chan error, 1)
	go func() { slow <- submitDefault(d, core.BJ) }()
	<-slowStarted
	// The slow job is still blocked; the fast one must come back anyway.
	if err := submitDefault(d, core.SRCH); err != nil {
		t.Fatalf("fast job failed: %v", err)
	}
	select {
	case err := <-slow:
		t.Fatalf("slow job finished before it was released: %v", err)
	default:
	}
	close(releaseSlow)
	if err := <-slow; err != nil {
		t.Fatalf("slow job failed: %v", err)
	}
	d.Close()
}

// TestDispatcherAnswersEachJobWhenItFinishes pins that two jobs running
// side by side are answered independently: the one that finishes first is
// answered first, not when the other ends.
func TestDispatcherAnswersEachJobWhenItFinishes(t *testing.T) {
	gates := map[core.Algorithm]chan struct{}{core.BTC: make(chan struct{}), core.BJ: make(chan struct{})}
	started := make(chan struct{}, len(gates))
	d := newTestDispatcher(func(req core.Request) core.Response {
		started <- struct{}{}
		<-gates[req.Alg]
		return core.Response{Result: &core.Result{}}
	}, 2, 8)

	answered := map[core.Algorithm]chan error{core.BTC: make(chan error, 1), core.BJ: make(chan error, 1)}
	for alg, ch := range answered {
		go func() { ch <- submitDefault(d, alg) }()
	}
	<-started
	<-started
	// Both are running. Finish BJ only: its answer must arrive while BTC
	// is still executing.
	close(gates[core.BJ])
	if err := <-answered[core.BJ]; err != nil {
		t.Fatalf("first finisher failed: %v", err)
	}
	select {
	case err := <-answered[core.BTC]:
		t.Fatalf("blocked job was answered before it finished: %v", err)
	default:
	}
	close(gates[core.BTC])
	if err := <-answered[core.BTC]; err != nil {
		t.Fatalf("second finisher failed: %v", err)
	}
	d.Close()
}

// TestDispatcherFreesSlotBeforeAnswering pins the order behind the
// tc_engine_inflight gauge: a lone job's slot is free by the time its
// submitter has the answer, so a scrape after the last reply reads 0.
func TestDispatcherFreesSlotBeforeAnswering(t *testing.T) {
	d := newTestDispatcher(func(core.Request) core.Response {
		return core.Response{Result: &core.Result{}}
	}, 2, 8)
	defer d.Close()
	for i := 0; i < 5000; i++ {
		if err := submitDefault(d, core.SRCH); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if n := d.Inflight(); n != 0 {
			t.Fatalf("submission %d: Inflight() = %d right after the answer, want 0", i, n)
		}
	}
}

// TestDispatcherDrainsOnClose pins the shutdown drain: Close returns only
// after every job admitted before it — running in a slot or still queued —
// has executed and been answered, and admission refuses afterwards.
func TestDispatcherDrainsOnClose(t *testing.T) {
	ex := newBlockingExec()
	d := newTestDispatcher(ex.exec, 2, 8)

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { errs <- submitDefault(d, core.SRCH) }()
	}
	// Two jobs are in flight and two queued when Close begins.
	<-ex.started
	<-ex.started
	waitQueue(t, d, 2)
	stop := make(chan struct{})
	go ex.releaseUntil(stop)
	d.Close()
	close(stop)
	if ex.finished != 4 {
		t.Fatalf("Close returned with %d of 4 admitted jobs executed", ex.finished)
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted job lost during drain: %v", err)
		}
	}
	// After close, admission refuses.
	if err := submitDefault(d, core.SRCH); !errors.Is(err, ErrClosed) {
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
// B's lone job must be the very next one to run.
func TestDispatcherTenantFairness(t *testing.T) {
	ex := newBlockingExec()
	d := newTenantDispatcher(ex.exec, []string{"a", "b"}, 1, 8)

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

	// Release the running job: the next one must be tenant B's, not more
	// of tenant A's backlog.
	ex.release <- struct{}{}
	<-ex.started
	ex.mu.Lock()
	second := ex.seen[1]
	ex.mu.Unlock()
	if second.Alg != core.BTC {
		t.Fatalf("second job %v is not tenant B's: round-robin fairness violated", second)
	}
	// Drain the rest.
	stop := make(chan struct{})
	go ex.releaseUntil(stop)
	wg.Wait()
	d.Close()
	close(stop)
}

// TestDispatcherPerTenantSaturation pins that queue bounds are per tenant:
// one tenant's full queue rejects only that tenant.
func TestDispatcherPerTenantSaturation(t *testing.T) {
	ex := newBlockingExec()
	d := newTenantDispatcher(ex.exec, []string{"a", "b"}, 1, 1)
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
