package core

import (
	"sync"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

// Concurrent query execution. The stored relations are immutable (sealed,
// so the striped disk serves them lock-free and the pools read them
// zero-copy), and every query creates its temporary files through its own
// tempTracker, so independent queries run in parallel without sharing any
// mutable storage. Page I/O is counted per pool, so every query's metric
// record is exactly what a solo run would report (verified by
// TestConcurrentMatchesSerial).
//
// This extends the paper's single-threaded engine without changing it:
// each individual query still executes the study's sequential two-phase
// algorithm on one goroutine. Concurrency is between queries, never inside
// one.

// Request is one query of a concurrent batch.
type Request struct {
	Alg   Algorithm
	Query Query
	Cfg   Config
}

// Response carries one request's outcome.
type Response struct {
	Result *Result
	Err    error
}

// tempTracker wraps the database's store and records every file created
// through it, so the query that owns the tracker can release exactly its
// own temporary files the moment it finishes — file IDs from concurrent
// queries interleave, so a range sweep cannot attribute them. Everything
// else, the zero-copy Sealed/View read path included, is the embedded
// store's.
type tempTracker struct {
	pagedisk.Store
	owned []pagedisk.FileID
}

func newTempTracker(s pagedisk.Store) *tempTracker { return &tempTracker{Store: s} }

// CreateFile records the new file as owned by this tracker's query.
func (t *tempTracker) CreateFile(name string) pagedisk.FileID {
	id := t.Store.CreateFile(name)
	t.owned = append(t.owned, id)
	return id
}

// release truncates every file the tracker's query created. Storage is
// reclaimed immediately; the (now empty) catalog entries remain, as the
// simulated disk never reuses file IDs.
func (t *tempTracker) release() {
	for _, id := range t.owned {
		t.Store.Truncate(id)
	}
	t.owned = t.owned[:0]
}

// newTrackedPool builds a buffer pool of cfg.BufferPages frames over a
// fresh temp-file tracker: every file created through the pool belongs to
// the tracker's owner.
func newTrackedPool(db *Database, cfg Config) (*tempTracker, *buffer.Pool, error) {
	pagePol, err := buffer.NewPolicy(cfg.PagePolicy, cfg.BufferPages)
	if err != nil {
		return nil, nil, err
	}
	temps := newTempTracker(db.disk)
	return temps, buffer.New(temps, cfg.BufferPages, pagePol), nil
}

// runOwned executes a validated request with a private buffer pool and a
// private temp-file tracker, releasing the query's temporary files when it
// returns. A panic in the engine becomes an *InternalError for this query
// alone: the pool and the temporary files it may have left half-written
// are the query's own, and the base relations are sealed.
func runOwned(db *Database, r Request, run func(*engine) error) (e *engine, err error) {
	temps, pool, err := newTrackedPool(db, r.Cfg)
	if err != nil {
		return nil, err
	}
	defer temps.release()
	defer func() {
		if p := recover(); p != nil {
			e, err = nil, &InternalError{Alg: r.Alg, Panic: p}
		}
	}()
	return execute(db, pool, r, run)
}

// RunConcurrent executes the requests in parallel over one database and
// returns the responses in request order. Each request's temporary files
// are released as that request finishes, so a large batch's temp storage
// is bounded by the number of in-flight queries, not the batch size.
func RunConcurrent(db *Database, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = RunOne(db, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// RunOne validates and executes one request with a private buffer pool and
// private temporary files: the per-request entry under RunConcurrent, safe
// to call from any number of goroutines over one database. An engine panic
// comes back as an *InternalError in Response.Err, so it never ends the
// caller's process.
func RunOne(db *Database, r Request) Response {
	r, err := r.Validate(db)
	if err != nil {
		return Response{Err: err}
	}
	res, err := r.run(db)
	return Response{Result: res, Err: err}
}
