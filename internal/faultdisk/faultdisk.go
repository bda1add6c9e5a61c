// Package faultdisk wraps any pagedisk.Store with deterministic,
// seed-driven fault injection.
//
// The simulated disk behaves perfectly; production storage does not. This
// package provides the failpoints the chaos harness (internal/chaos) and
// the robustness tests drive:
//
//   - probabilistic per-op failures: each read/write/alloc fails
//     independently with a configured probability, drawn from a seeded
//     PRNG, so a run is exactly reproducible from (seed, probabilities);
//   - scripted failures: a Schedule names exact operations to fail
//     ("read@17" fails the 17th read), for replaying a failure found by a
//     randomized run and for pinning precise error paths in tests;
//   - simulated latency: per-op tick charges accumulate in a counter, so
//     tests can assert cost models without real sleeping.
//
// Injected failures are transient in the sense of pagedisk.IsTransient:
// the wrapped store is intact and the same operation succeeds once the
// failpoint has fired. Torn and partial writes for the OS-file persist
// paths (pagedisk snapshots, index files) live in torn.go.
package faultdisk

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tcstudy/internal/pagedisk"
)

// Op names a store operation kind subject to injection.
type Op uint8

// The injectable operation kinds.
const (
	OpRead Op = iota
	OpWrite
	OpAlloc
	numOps
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAlloc:
		return "alloc"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// parseOp is the inverse of Op.String.
func parseOp(s string) (Op, error) {
	switch s {
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	case "alloc":
		return OpAlloc, nil
	}
	return 0, fmt.Errorf("faultdisk: unknown op %q (have read, write, alloc)", s)
}

// Fault is one scripted failpoint: the Seq'th operation (0-based, counted
// separately per kind) of kind Op fails.
type Fault struct {
	Op  Op
	Seq int64
}

func (f Fault) String() string { return fmt.Sprintf("%s@%d", f.Op, f.Seq) }

// Schedule is a scripted set of failpoints. Its string form
// ("read@17,write@3") is what failing chaos runs print for replay.
type Schedule []Fault

func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses the string form produced by Schedule.String.
// An empty string is the empty schedule.
func ParseSchedule(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out Schedule
	for _, part := range strings.Split(s, ",") {
		op, seqStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("faultdisk: bad failpoint %q (want op@seq)", part)
		}
		o, err := parseOp(op)
		if err != nil {
			return nil, err
		}
		seq, err := strconv.ParseInt(seqStr, 10, 64)
		if err != nil || seq < 0 {
			return nil, fmt.Errorf("faultdisk: bad sequence number in %q", part)
		}
		out = append(out, Fault{Op: o, Seq: seq})
	}
	return out, nil
}

// Options configures a wrapped store. The zero value injects nothing.
type Options struct {
	// Seed drives the probabilistic failure draws. Two stores wrapped with
	// equal Options inject faults at identical operation sequences.
	Seed int64
	// ReadFailProb, WriteFailProb and AllocFailProb are independent per-op
	// failure probabilities in [0, 1].
	ReadFailProb  float64
	WriteFailProb float64
	AllocFailProb float64
	// Schedule names exact operations to fail, on top of any probabilistic
	// injection.
	Schedule Schedule
	// ReadLatency and WriteLatency are simulated ticks charged per
	// successful operation, accumulated in Counters.Latency. No real time
	// passes; the counter exists so tests can assert latency accounting.
	ReadLatency  int64
	WriteLatency int64
}

// String renders the options compactly for replay instructions.
func (o Options) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", o.Seed)
	if o.ReadFailProb > 0 {
		fmt.Fprintf(&b, " pread=%g", o.ReadFailProb)
	}
	if o.WriteFailProb > 0 {
		fmt.Fprintf(&b, " pwrite=%g", o.WriteFailProb)
	}
	if o.AllocFailProb > 0 {
		fmt.Fprintf(&b, " palloc=%g", o.AllocFailProb)
	}
	if len(o.Schedule) > 0 {
		fmt.Fprintf(&b, " schedule=%s", o.Schedule)
	}
	return b.String()
}

// Counters reports a wrapped store's activity.
type Counters struct {
	Reads, Writes, Allocs int64 // operations attempted, injected or not
	Injected              int64 // operations failed by injection
	Latency               int64 // simulated ticks accumulated
}

// ErrInjected is the sentinel every injected failure matches with
// errors.Is. It also matches pagedisk.ErrIOInjected consumers via
// pagedisk.IsTransient, which reports true for these errors.
var ErrInjected = errors.New("faultdisk: injected storage fault")

// Error is one injected failure, carrying the operation identity for
// diagnostics and replay.
type Error struct {
	Op  Op
	Seq int64 // per-kind operation sequence number that failed
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultdisk: injected %s failure at %s@%d", e.Op, e.Op, e.Seq)
}

// Is makes errors.Is(err, ErrInjected) succeed.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// TransientStorageFault marks injected faults retryable for
// pagedisk.IsTransient.
func (e *Error) TransientStorageFault() bool { return true }

// Store wraps an inner pagedisk.Store with fault injection. It is safe for
// concurrent use; injection draws are serialized, so a single-threaded
// operation sequence is exactly reproducible from Options.
type Store struct {
	inner pagedisk.Store

	mu    sync.Mutex
	opts  Options
	rng   *rand.Rand
	seq   [numOps]int64
	sched [numOps]map[int64]bool
	cnt   Counters
}

var _ pagedisk.Store = (*Store)(nil)

// Wrap returns a fault-injecting view of inner.
func Wrap(inner pagedisk.Store, opts Options) *Store {
	s := &Store{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
	for _, f := range opts.Schedule {
		if f.Op >= numOps {
			continue
		}
		if s.sched[f.Op] == nil {
			s.sched[f.Op] = make(map[int64]bool)
		}
		s.sched[f.Op][f.Seq] = true
	}
	return s
}

// Inner returns the wrapped store.
func (s *Store) Inner() pagedisk.Store { return s.inner }

// Options returns the injection configuration (for replay messages).
func (s *Store) Options() Options { return s.opts }

// Counters returns the activity counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cnt
}

// before accounts one operation of kind op and decides whether it fails.
func (s *Store) before(op Op, prob float64, latency int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq[op]
	s.seq[op]++
	switch op {
	case OpRead:
		s.cnt.Reads++
	case OpWrite:
		s.cnt.Writes++
	case OpAlloc:
		s.cnt.Allocs++
	}
	fail := s.sched[op] != nil && s.sched[op][seq]
	if !fail && prob > 0 && s.rng.Float64() < prob {
		fail = true
	}
	if fail {
		s.cnt.Injected++
		return &Error{Op: op, Seq: seq}
	}
	s.cnt.Latency += latency
	return nil
}

// CreateFile delegates to the inner store.
func (s *Store) CreateFile(name string) pagedisk.FileID { return s.inner.CreateFile(name) }

// FileName delegates to the inner store.
func (s *Store) FileName(f pagedisk.FileID) string { return s.inner.FileName(f) }

// NumFiles delegates to the inner store.
func (s *Store) NumFiles() int { return s.inner.NumFiles() }

// NumPages delegates to the inner store.
func (s *Store) NumPages(f pagedisk.FileID) int { return s.inner.NumPages(f) }

// Truncate delegates to the inner store.
func (s *Store) Truncate(f pagedisk.FileID) { s.inner.Truncate(f) }

// Stats delegates to the inner store, so I/O accounting is unchanged by
// wrapping.
func (s *Store) Stats() pagedisk.Stats { return s.inner.Stats() }

// ResetStats delegates to the inner store.
func (s *Store) ResetStats() { s.inner.ResetStats() }

// Read injects, then delegates.
func (s *Store) Read(f pagedisk.FileID, p pagedisk.PageID, dst *pagedisk.Page) error {
	if err := s.before(OpRead, s.opts.ReadFailProb, s.opts.ReadLatency); err != nil {
		return err
	}
	return s.inner.Read(f, p, dst)
}

// Write injects, then delegates.
func (s *Store) Write(f pagedisk.FileID, p pagedisk.PageID, src *pagedisk.Page) error {
	if err := s.before(OpWrite, s.opts.WriteFailProb, s.opts.WriteLatency); err != nil {
		return err
	}
	return s.inner.Write(f, p, src)
}

// Allocate injects, then delegates.
func (s *Store) Allocate(f pagedisk.FileID) (pagedisk.PageID, error) {
	if err := s.before(OpAlloc, s.opts.AllocFailProb, 0); err != nil {
		return pagedisk.InvalidPage, err
	}
	return s.inner.Allocate(f)
}

// Sealed delegates to the inner store.
func (s *Store) Sealed(f pagedisk.FileID) bool { return s.inner.Sealed(f) }

// View charges and injects exactly like Read — a view replaces a Read
// one-for-one at the same call site, so scripted "read@N" failpoints and
// read sequence numbers are unchanged by the zero-copy path — then
// delegates to the inner store.
func (s *Store) View(f pagedisk.FileID, p pagedisk.PageID) (*pagedisk.Page, error) {
	if err := s.before(OpRead, s.opts.ReadFailProb, s.opts.ReadLatency); err != nil {
		return nil, err
	}
	return s.inner.View(f, p)
}

// sortFaults orders a schedule for stable printing (helper for harnesses
// that accumulate failpoints out of order).
func sortFaults(s Schedule) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Op != s[j].Op {
			return s[i].Op < s[j].Op
		}
		return s[i].Seq < s[j].Seq
	})
}

// Normalize sorts the schedule in place, drops duplicate failpoints (an
// operation can only fail once) and returns the result — a stable string
// form for replay messages.
func (s Schedule) Normalize() Schedule {
	sortFaults(s)
	out := s[:0]
	for i, f := range s {
		if i == 0 || f != s[i-1] {
			out = append(out, f)
		}
	}
	return out
}
