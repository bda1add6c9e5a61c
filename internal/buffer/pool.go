package buffer

import (
	"errors"
	"fmt"

	"tcstudy/internal/pagedisk"
)

// ErrNoFrames is returned by Get when every frame in the pool is pinned and
// a new page cannot be brought in. Callers that pin many pages at once (the
// Hybrid algorithm's diagonal block) treat this as the signal to reblock.
var ErrNoFrames = errors.New("buffer: all frames pinned")

type key struct {
	file pagedisk.FileID
	page pagedisk.PageID
}

type frame struct {
	key   key
	data  pagedisk.Page
	view  *pagedisk.Page // non-nil: zero-copy view of a sealed file's page
	pins  int
	dirty bool
	valid bool
	fresh bool // allocated but never yet written to disk
}

// Stats summarizes buffer pool activity, including the page I/O this pool
// issued against the disk. Counting I/O at the pool rather than the shared
// disk attributes cost exactly to the query that caused it, which is what
// permits concurrent queries over one database.
type Stats struct {
	Hits   int64
	Misses int64
	Evicts int64
	Reads  int64 // disk reads issued by this pool
	Writes int64 // disk writes issued by this pool
}

// IO returns the pool's disk traffic as a pagedisk.Stats value.
func (s Stats) IO() pagedisk.Stats {
	return pagedisk.Stats{Reads: s.Reads, Writes: s.Writes}
}

// HitRatio returns Hits / (Hits + Misses), or 0 when no accesses occurred.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Sub returns s - t, for attributing activity to a phase.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Hits:   s.Hits - t.Hits,
		Misses: s.Misses - t.Misses,
		Evicts: s.Evicts - t.Evicts,
		Reads:  s.Reads - t.Reads,
		Writes: s.Writes - t.Writes,
	}
}

// Pool is a buffer pool of fixed size over a page store (the simulated
// disk, or a fault-injecting wrapper around it). Pages are pinned by Get
// and released by Unpin; pinned pages are never evicted.
// The pool is not safe for concurrent use.
type Pool struct {
	disk   pagedisk.Store
	frames []frame
	table  map[key]int
	policy Policy
	stats  Stats
}

// New creates a pool of size frames over disk using the given replacement
// policy. Size must be at least 1. Misses on sealed files fill frames with
// zero-copy views (Store.View) instead of page copies; the accounting
// (hits, misses, reads) is identical either way.
func New(disk pagedisk.Store, size int, policy Policy) *Pool {
	if size < 1 {
		panic("buffer: pool size must be at least 1")
	}
	return &Pool{
		disk:   disk,
		frames: make([]frame, size),
		table:  make(map[key]int, size),
		policy: policy,
	}
}

// Size reports the number of frames in the pool.
func (p *Pool) Size() int { return len(p.frames) }

// Disk returns the underlying page store.
func (p *Pool) Disk() pagedisk.Store { return p.disk }

// Stats returns cumulative hit/miss/eviction counters.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the counters (the resident set is unaffected).
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Policy returns the pool's replacement policy.
func (p *Pool) Policy() Policy { return p.policy }

// PinnedFrames reports how many frames currently have a nonzero pin count.
func (p *Pool) PinnedFrames() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}

// Handle is a pinned reference to a page resident in the pool.
type Handle struct {
	pool  *Pool
	idx   int
	key   key
	valid bool
}

// Data returns the page bytes. The pointer aliases the frame (or, for a
// sealed file, the shared immutable storage); it is valid only while the
// handle remains pinned, and pages of sealed files must not be written
// through it.
func (h *Handle) Data() *pagedisk.Page {
	if !h.valid {
		panic("buffer: use of unpinned handle")
	}
	fr := &h.pool.frames[h.idx]
	if fr.view != nil {
		return fr.view
	}
	return &fr.data
}

// Page reports the page identity behind the handle.
func (h *Handle) Page() (pagedisk.FileID, pagedisk.PageID) { return h.key.file, h.key.page }

// evict writes frame i back if dirty and removes it from the table.
func (p *Pool) evict(i int) error {
	fr := &p.frames[i]
	if fr.dirty || fr.fresh {
		if err := p.disk.Write(fr.key.file, fr.key.page, &fr.data); err != nil {
			return err
		}
		p.stats.Writes++
	}
	delete(p.table, fr.key)
	p.policy.Removed(i)
	fr.valid = false
	fr.dirty = false
	fr.fresh = false
	fr.view = nil
	p.stats.Evicts++
	return nil
}

// freeFrame finds a frame to hold a new page, evicting if necessary.
func (p *Pool) freeFrame() (int, error) {
	for i := range p.frames {
		if !p.frames[i].valid {
			return i, nil
		}
	}
	i := p.policy.Victim(func(i int) bool { return p.frames[i].pins == 0 })
	if i < 0 {
		return -1, ErrNoFrames
	}
	if err := p.evict(i); err != nil {
		return -1, err
	}
	return i, nil
}

// Get pins page pg of file f, reading it from disk on a miss, and returns a
// handle. Every successful Get must be balanced by exactly one Unpin.
func (p *Pool) Get(f pagedisk.FileID, pg pagedisk.PageID) (Handle, error) {
	k := key{f, pg}
	if i, ok := p.table[k]; ok {
		p.frames[i].pins++
		p.policy.Touched(i)
		p.stats.Hits++
		return Handle{pool: p, idx: i, key: k, valid: true}, nil
	}
	i, err := p.freeFrame()
	if err != nil {
		return Handle{}, err
	}
	fr := &p.frames[i]
	if p.disk.Sealed(f) {
		// Sealed files are immutable: the frame holds a view into the
		// shared storage instead of a private copy. A view is charged as
		// one read, so the cost model is unchanged.
		v, err := p.disk.View(f, pg)
		if err != nil {
			return Handle{}, err
		}
		fr.view = v
	} else {
		if err := p.disk.Read(f, pg, &fr.data); err != nil {
			return Handle{}, err
		}
		fr.view = nil
	}
	p.stats.Misses++
	p.stats.Reads++
	fr.key = k
	fr.pins = 1
	fr.valid = true
	fr.dirty = false
	fr.fresh = false
	p.table[k] = i
	p.policy.Admitted(i)
	return Handle{pool: p, idx: i, key: k, valid: true}, nil
}

// GetNew allocates a fresh page in file f, pins it with zeroed contents,
// and returns its ID with the handle. No read I/O is charged; the page is
// written when flushed or evicted.
func (p *Pool) GetNew(f pagedisk.FileID) (pagedisk.PageID, Handle, error) {
	pg, err := p.disk.Allocate(f)
	if err != nil {
		return pagedisk.InvalidPage, Handle{}, err
	}
	i, err := p.freeFrame()
	if err != nil {
		return pagedisk.InvalidPage, Handle{}, err
	}
	fr := &p.frames[i]
	fr.data = pagedisk.Page{}
	fr.view = nil
	k := key{f, pg}
	fr.key = k
	fr.pins = 1
	fr.valid = true
	fr.dirty = true
	fr.fresh = true
	p.table[k] = i
	p.policy.Admitted(i)
	return pg, Handle{pool: p, idx: i, key: k, valid: true}, nil
}

// Unpin releases the handle, optionally marking the page dirty.
func (p *Pool) Unpin(h *Handle, dirty bool) {
	if !h.valid {
		panic("buffer: double unpin")
	}
	fr := &p.frames[h.idx]
	if fr.pins <= 0 || fr.key != h.key {
		panic(fmt.Sprintf("buffer: unbalanced unpin of page %d/%d", h.key.file, h.key.page))
	}
	if dirty {
		if fr.view != nil {
			panic(fmt.Sprintf("buffer: dirty unpin of sealed page %d/%d", h.key.file, h.key.page))
		}
		fr.dirty = true
	}
	fr.pins--
	h.valid = false
}

// FlushAll writes all dirty pages back to disk, leaving them resident and
// clean. Used at the end of a computation whose result must persist (the
// "write the expanded lists out to disk" step of the paper).
func (p *Pool) FlushAll() error {
	for i := range p.frames {
		fr := &p.frames[i]
		if fr.valid && (fr.dirty || fr.fresh) {
			if err := p.disk.Write(fr.key.file, fr.key.page, &fr.data); err != nil {
				return err
			}
			p.stats.Writes++
			fr.dirty = false
			fr.fresh = false
		}
	}
	return nil
}

// FlushPage writes page pg of file f back to disk if it is resident and
// dirty; otherwise it is a no-op. Used to persist selected result pages
// (the "write out the expanded lists of the source nodes" step).
func (p *Pool) FlushPage(f pagedisk.FileID, pg pagedisk.PageID) error {
	i, ok := p.table[key{f, pg}]
	if !ok {
		return nil
	}
	fr := &p.frames[i]
	if !fr.dirty && !fr.fresh {
		return nil
	}
	if err := p.disk.Write(fr.key.file, fr.key.page, &fr.data); err != nil {
		return err
	}
	p.stats.Writes++
	fr.dirty = false
	fr.fresh = false
	return nil
}

// FlushFile writes back dirty pages belonging to file f only.
func (p *Pool) FlushFile(f pagedisk.FileID) error {
	for i := range p.frames {
		fr := &p.frames[i]
		if fr.valid && fr.key.file == f && (fr.dirty || fr.fresh) {
			if err := p.disk.Write(fr.key.file, fr.key.page, &fr.data); err != nil {
				return err
			}
			p.stats.Writes++
			fr.dirty = false
			fr.fresh = false
		}
	}
	return nil
}

// DiscardFile invalidates resident pages of file f without writing them
// back. It models dropping a temporary file whose contents are no longer
// needed (e.g. non-source expanded lists after a selection query). Pinned
// pages of the file must not exist.
func (p *Pool) DiscardFile(f pagedisk.FileID) {
	for i := range p.frames {
		fr := &p.frames[i]
		if !fr.valid || fr.key.file != f {
			continue
		}
		if fr.pins > 0 {
			panic("buffer: DiscardFile with pinned page")
		}
		delete(p.table, fr.key)
		p.policy.Removed(i)
		fr.valid = false
		fr.dirty = false
		fr.fresh = false
		fr.view = nil
	}
}

// Reset discards every frame — pinned, dirty or clean — without any
// write-back, returning the pool to its freshly-created state. It exists
// for fault recovery: after a storage error aborts a computation mid-run,
// pins may be outstanding and dirty frames may hold pages of temporary
// files the caller is about to drop. Any handle obtained before Reset is
// invalid afterwards and must not be used.
func (p *Pool) Reset() {
	for i := range p.frames {
		if p.frames[i].valid {
			delete(p.table, p.frames[i].key)
			p.policy.Removed(i)
		}
		p.frames[i] = frame{}
	}
}

// Resident reports whether a page is currently in the pool (for tests and
// for the locality analysis in the experiments).
func (p *Pool) Resident(f pagedisk.FileID, pg pagedisk.PageID) bool {
	_, ok := p.table[key{f, pg}]
	return ok
}
