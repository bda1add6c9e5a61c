package dynamic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
	"sync"
	"time"

	"tcstudy/internal/graph"
	"tcstudy/internal/index"
)

// ErrBacklog is returned by Apply when the gap between applied batches and
// the serving index generation exceeds Options.MaxPending: the rebuild
// worker is behind, and admitting more writes would only grow the overlay
// the read path has to BFS over. Callers should surface it as retryable
// backpressure (HTTP 429).
var ErrBacklog = errors.New("dynamic: mutation backlog exceeds limit; rebuild in progress, retry")

// ErrFutureSeq is returned by Reach when the caller claims to have
// observed a sequence number this replica has not applied yet — a
// read-your-writes query routed to a lagging replica. Callers should
// surface it as retryable (HTTP 503) so the client or router re-routes.
var ErrFutureSeq = errors.New("dynamic: observed sequence not yet applied on this replica")

// Options tunes a Service.
type Options struct {
	// BaseFingerprint seeds the dynamic dataset fingerprint, normally
	// core.Database.Fingerprint() of the frozen base relation. Every
	// applied arc change XORs an order-independent arc hash into it, so
	// two replicas that applied the same set of effective changes agree
	// on the fingerprint no matter how their rebuilds interleaved.
	BaseFingerprint uint64
	// MaxBatchOps caps ops per batch (default 1024).
	MaxBatchOps int
	// MaxPending caps applied-but-not-yet-reindexed batches before Apply
	// sheds load with ErrBacklog (default 256).
	MaxPending int
	// Manual disables the background rebuild worker; tests drive
	// RebuildNow explicitly to hold the service in the dirty state.
	Manual bool
	// OnRebuild, when set, observes every completed generation swap. It
	// is called outside all service locks.
	OnRebuild func(generation int64, replayed int, took time.Duration)
}

// logOp is one applied op plus the classification replay needs: whether it
// changed the graph at all and, for deletes, whether removing the arc
// shrank the closure (not coverable by an in-place patch).
type logOp struct {
	Op
	applied   bool
	shrinking bool
}

type logBatch struct {
	seq int64
	ops []logOp
}

// Result reports what one applied batch did.
type Result struct {
	Seq         int64  `json:"seq"`
	Applied     int    `json:"applied"`
	Noops       int    `json:"noops"`
	Merged      int    `json:"merged_components"`
	Dirty       bool   `json:"rebuilding"`
	Generation  int64  `json:"generation"`
	Pending     int    `json:"pending"`
	Fingerprint uint64 `json:"-"`
}

// Stats is a point-in-time summary for health and metrics endpoints.
type Stats struct {
	Seq         int64
	Generation  int64
	Pending     int
	Dirty       bool
	Rebuilds    int64
	Mutations   int64
	Merges      int64
	NumArcs     int
	Fingerprint uint64
}

// Service is the mutable-graph authority for one tcserve process. It is
// safe for concurrent use; reads take a read lock and are never blocked by
// a background rebuild (the expensive build runs outside all locks and
// only the pointer swap is exclusive).
type Service struct {
	opts Options

	mu      sync.RWMutex
	n       int
	adj     [][]int32 // authoritative adjacency: out-lists of nodes 1..n
	numArcs int
	fp      uint64
	seq     int64      // batches applied
	log     []logBatch // append-only; log[i].seq == i+1
	idx     *index.Index
	idxSeq  int64 // log position the serving index reflects
	dirty   bool  // a closure-shrinking delete awaits the next rebuild
	pendIns int   // inserts applied to adj but not folded into idx (while dirty)

	generation int64
	rebuilds   int64
	mutations  int64
	merges     int64

	scratch sync.Pool // *bfsScratch, one per concurrent overlay search

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

var fpTable = crc64.MakeTable(crc64.ECMA)

// arcHash is the order-independent per-arc term of the dynamic dataset
// fingerprint: applied changes XOR it in, so insert followed by delete of
// the same arc cancels back to the original fingerprint.
func arcHash(u, v int32) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(u))
	binary.LittleEndian.PutUint32(b[4:], uint32(v))
	return crc64.Checksum(b[:], fpTable)
}

// New builds a Service over the base graph (nodes 1..n, arcs as loaded)
// and a freshly built or loaded index for exactly that graph. Unless
// opts.Manual is set, a background worker rebuilds the index whenever a
// closure-shrinking delete dirties it.
func New(n int, arcs []graph.Arc, idx *index.Index, opts Options) (*Service, error) {
	if idx == nil {
		return nil, errors.New("dynamic: nil index")
	}
	if idx.N() != n {
		return nil, fmt.Errorf("dynamic: index covers %d nodes, graph has %d", idx.N(), n)
	}
	if opts.MaxBatchOps <= 0 {
		opts.MaxBatchOps = 1024
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 256
	}
	s := &Service{
		opts: opts,
		n:    n,
		adj:  make([][]int32, n+1),
		fp:   opts.BaseFingerprint,
		idx:  idx,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	for _, a := range arcs {
		if a.From < 1 || a.To < 1 || int(a.From) > n || int(a.To) > n {
			return nil, fmt.Errorf("dynamic: base arc (%d,%d) outside 1..%d", a.From, a.To, n)
		}
		s.adj[a.From] = append(s.adj[a.From], a.To)
	}
	for u, out := range s.adj {
		slices.Sort(out)
		s.adj[u] = slices.Compact(out)
		s.numArcs += len(s.adj[u])
	}
	if !opts.Manual {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops the background rebuild worker. It does not flush: a dirty
// service stays dirty (the log still holds everything needed to rebuild).
func (s *Service) Close() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.wg.Wait()
}

// addAdj adds u->v to the out-list of u and reports whether it was absent.
func (s *Service) addAdj(u, v int32) bool {
	if slices.Contains(s.adj[u], v) {
		return false
	}
	s.adj[u] = append(s.adj[u], v)
	return true
}

// delAdj removes u->v from the out-list of u (swap with the last entry;
// the lists are unordered) and reports whether it was present.
func (s *Service) delAdj(u, v int32) bool {
	out := s.adj[u]
	i := slices.Index(out, v)
	if i < 0 {
		return false
	}
	last := len(out) - 1
	out[i] = out[last]
	s.adj[u] = out[:last]
	return true
}

// N reports the node count (fixed at construction; the mutation protocol
// changes arcs, not the vertex set).
func (s *Service) N() int { return s.n }

// SetOnRebuild installs the rebuild observer after construction. The
// serving layer owns the metrics and trace ring the hook feeds but is
// built after the service, so it cannot pass the hook through Options.
func (s *Service) SetOnRebuild(f func(generation int64, replayed int, took time.Duration)) {
	s.mu.Lock()
	s.opts.OnRebuild = f
	s.mu.Unlock()
}

// MaxBatchOps exposes the per-batch op budget for request validation.
func (s *Service) MaxBatchOps() int { return s.opts.MaxBatchOps }

// Apply validates and applies one batch atomically: either every op is
// checked and the whole batch is applied (idempotent no-ops included), or
// nothing is. It returns ErrBacklog when the rebuild worker is too far
// behind to admit more writes.
func (s *Service) Apply(ops []Op) (Result, error) {
	return s.apply(ops, true)
}

func (s *Service) apply(ops []Op, admission bool) (Result, error) {
	if len(ops) == 0 {
		return Result{}, errors.New("dynamic: empty batch")
	}
	if len(ops) > s.opts.MaxBatchOps {
		return Result{}, fmt.Errorf("dynamic: batch has %d ops, limit %d", len(ops), s.opts.MaxBatchOps)
	}
	for i, o := range ops {
		if err := o.Validate(s.n); err != nil {
			return Result{}, fmt.Errorf("op %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if admission && int(s.seq-s.idxSeq) >= s.opts.MaxPending {
		return Result{}, ErrBacklog
	}
	s.seq++
	lb := logBatch{seq: s.seq, ops: make([]logOp, 0, len(ops))}
	res := Result{Seq: s.seq}
	for _, o := range ops {
		lo := s.applyOpLocked(o, &res)
		lb.ops = append(lb.ops, lo)
	}
	s.log = append(s.log, lb)
	if !s.dirty {
		s.idxSeq = s.seq
	} else if !s.opts.Manual {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	res.Dirty = s.dirty
	res.Generation = s.generation
	res.Pending = int(s.seq - s.idxSeq)
	res.Fingerprint = s.fp
	return res, nil
}

func (s *Service) applyOpLocked(o Op, res *Result) logOp {
	lo := logOp{Op: o}
	if o.Op == OpInsert {
		if !s.addAdj(o.From, o.To) {
			res.Noops++
			return lo
		}
		lo.applied = true
		s.numArcs++
		s.fp ^= arcHash(o.From, o.To)
		s.mutations++
		res.Applied++
		if s.dirty {
			s.pendIns++
			return lo
		}
		merged, err := s.idx.InsertArcMerge(o.From, o.To)
		if err != nil {
			// Defensive: the index rejects only an out-of-range arc, which
			// batch validation never lets through. Fall back to the rebuild
			// path rather than serving wrong answers.
			s.dirty = true
			s.pendIns++
			return lo
		}
		s.merges += int64(merged)
		res.Merged += merged
		return lo
	}
	// delete
	if !s.delAdj(o.From, o.To) {
		res.Noops++
		return lo
	}
	lo.applied = true
	s.numArcs--
	s.fp ^= arcHash(o.From, o.To)
	s.mutations++
	res.Applied++
	if o.From != o.To {
		// A delete is patchable iff it preserves the closure: u must still
		// reach v through the remaining arcs. The check runs on the
		// authoritative adjacency, so it also certifies intra-SCC deletes
		// that do not split their component.
		lo.shrinking = !s.bfsLocked(o.From, o.To)
	}
	if s.dirty {
		return lo
	}
	switch {
	case o.From == o.To:
		s.idx.DeleteSelfLoop(o.From)
	case !lo.shrinking:
		s.idx.DeleteRedundantArc(o.From, o.To)
	default:
		s.dirty = true
	}
	return lo
}

// bfsScratch is one overlay search's working memory: seen[v] == epoch marks
// v visited in the current search, so a search starts by bumping epoch
// instead of clearing an n-sized array.
type bfsScratch struct {
	seen  []uint32
	epoch uint32
	queue []int32
}

// bfsLocked answers closure-semantics reachability (path length >= 1) on
// the authoritative adjacency. It is the overlay read path while the index
// is dirty and the delete classifier's certificate; both need the true
// current graph, which only the adjacency holds. It holds s.mu (read or
// write); concurrent readers each take their own scratch from the pool.
func (s *Service) bfsLocked(src, dst int32) bool {
	sc, _ := s.scratch.Get().(*bfsScratch)
	if sc == nil {
		sc = &bfsScratch{seen: make([]uint32, s.n+1)}
	}
	found := sc.search(s.adj, src, dst)
	s.scratch.Put(sc)
	return found
}

// search runs one BFS from src's out-neighbours and stops as soon as it
// meets dst.
func (sc *bfsScratch) search(adj [][]int32, src, dst int32) bool {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could collide with the new epoch
		clear(sc.seen)
		sc.epoch = 1
	}
	seen, ep := sc.seen, sc.epoch
	queue := append(sc.queue[:0], src)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		for _, w := range adj[queue[head]] {
			if w == dst {
				found = true
				break
			}
			if seen[w] != ep {
				seen[w] = ep
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue[:0]
	return found
}

// Reach answers src -> dst with read-your-writes semantics: observed is
// the highest batch sequence number the caller has seen acknowledged (0
// for none). If this replica has not applied that batch yet it refuses
// with ErrFutureSeq instead of serving an older state. The boolean
// indexHit reports whether the sealed index answered (false means the
// bounded delta overlay — a BFS over the authoritative adjacency — was
// consulted because a rebuild is in flight).
func (s *Service) Reach(src, dst int32, observed int64) (reachable, indexHit bool, seq int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if observed > s.seq {
		return false, false, s.seq, ErrFutureSeq
	}
	if src < 1 || dst < 1 || int(src) > s.n || int(dst) > s.n {
		return false, !s.dirty, s.seq, nil
	}
	if !s.dirty {
		return s.idx.Reach(src, dst), true, s.seq, nil
	}
	// Dirty: the index is missing a closure-shrinking delete, so a
	// positive index answer cannot be trusted. A negative one can, as
	// long as no un-folded inserts are pending — deletes only shrink
	// reachability.
	if s.pendIns == 0 && !s.idx.Reach(src, dst) {
		return false, false, s.seq, nil
	}
	return s.bfsLocked(src, dst), false, s.seq, nil
}

// Index returns the currently serving index generation.
func (s *Service) Index() *index.Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx
}

// Arcs snapshots the authoritative adjacency as an arc list sorted by
// (From, To).
func (s *Service) Arcs() []graph.Arc {
	s.mu.RLock()
	arcs := s.arcsLocked()
	s.mu.RUnlock()
	slices.SortFunc(arcs, func(a, b graph.Arc) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	return arcs
}

// arcsLocked copies the adjacency in node order, each out-list as it lies
// (unsorted): the rebuild snapshot takes it under the read lock and the
// index build does not care about order.
func (s *Service) arcsLocked() []graph.Arc {
	arcs := make([]graph.Arc, 0, s.numArcs)
	for u := int32(1); u <= int32(s.n); u++ {
		for _, v := range s.adj[u] {
			arcs = append(arcs, graph.Arc{From: u, To: v})
		}
	}
	return arcs
}

// Stats summarizes the service state.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Seq:         s.seq,
		Generation:  s.generation,
		Pending:     int(s.seq - s.idxSeq),
		Dirty:       s.dirty,
		Rebuilds:    s.rebuilds,
		Mutations:   s.mutations,
		Merges:      s.merges,
		NumArcs:     s.numArcs,
		Fingerprint: s.fp,
	}
}

// Log snapshots the applied mutation log for persistence or crash-recovery
// replay into a fresh service (see ReplayLog).
func (s *Service) Log() []Batch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Batch, len(s.log))
	for i, b := range s.log {
		ops := make([]Op, len(b.ops))
		for j, lo := range b.ops {
			ops[j] = lo.Op
		}
		out[i] = Batch{Seq: b.seq, Ops: ops}
	}
	return out
}

// ReplayLog re-applies a recovered mutation log to a service freshly
// constructed from the same base graph. Sequence numbers must continue
// from the service's current position; admission control is bypassed
// (recovery must not shed its own history).
func (s *Service) ReplayLog(batches []Batch) error {
	for _, b := range batches {
		res, err := s.apply(b.Ops, false)
		if err != nil {
			return fmt.Errorf("dynamic: replay batch %d: %w", b.Seq, err)
		}
		if b.Seq != 0 && res.Seq != b.Seq {
			return fmt.Errorf("dynamic: replay produced seq %d for logged batch %d", res.Seq, b.Seq)
		}
	}
	return nil
}
