// Package pagedisk implements the simulated disk underlying the study.
//
// The paper (Section 5.1, Section 6.1) measures the page I/O performed by a
// simulated buffer manager over 2048-byte pages. This package provides that
// disk: a set of files, each an extensible array of fixed-size pages, with
// per-operation read/write accounting. All data lives in memory; "I/O" is a
// counted event, exactly as in the paper's own experimental apparatus.
//
// The disk is safe for concurrent use and designed so that adding cores
// adds throughput:
//
//   - the catalog (the file table) is read without any lock: it is an
//     append-only array published through an atomic pointer, and only file
//     creation takes a mutex. Every page operation starts with a catalog
//     lookup, so a reader count shared by all queries would be one cache
//     line bouncing between every core that runs one;
//   - each file carries its own lock (lock striping), so queries touching
//     different files — which is the common case: every query owns its
//     temporary files exclusively — never contend;
//   - files can be sealed once fully built (Seal, SealAll). A sealed file
//     is immutable: reads take no lock at all, and the View method hands
//     out stable zero-copy pointers into the shared page storage, which
//     the buffer pool uses to pin base-relation pages without copying;
//   - I/O counters are atomics, so accounting never serializes readers;
//   - the pages of a truncated (temporary) file go back to a pool the disk
//     owns and are handed out again, zeroed, by Allocate, so a stream of
//     queries reuses one working set of pages instead of faulting in fresh
//     memory per query. The collector empties the pool, so an idle disk
//     holds nothing. Sealed files are never truncated: View pointers stay
//     stable.
//
// Each individual query engine remains single-threaded, as the paper's was.
package pagedisk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the size of a disk page in bytes (Section 5.1 of the paper).
const PageSize = 2048

// PageID identifies a page within a file. Valid IDs are non-negative.
type PageID int32

// InvalidPage is a sentinel PageID that refers to no page.
const InvalidPage PageID = -1

// FileID identifies a file on the disk.
type FileID int32

// Page is the unit of transfer between disk and buffer pool.
type Page [PageSize]byte

// Stats records cumulative I/O activity. Reads and Writes count page
// transfers; Allocs counts pages added to files (allocation itself is a
// catalog operation and is not charged as I/O — a fresh page is materialized
// in the buffer and charged as a write when it is first flushed).
type Stats struct {
	Reads  int64
	Writes int64
	Allocs int64
}

// Total returns the total number of page transfers (reads plus writes).
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// Sub returns the difference s - t, used to attribute I/O to a phase by
// snapshotting before and after.
func (s Stats) Sub(t Stats) Stats {
	return Stats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes, Allocs: s.Allocs - t.Allocs}
}

// ErrIOInjected is returned by Read and Write after a test has armed
// failure injection with FailAfter.
var ErrIOInjected = errors.New("pagedisk: injected I/O failure")

// ErrSealed is returned by Write and Allocate on a sealed file.
var ErrSealed = errors.New("pagedisk: file is sealed")

// Store is the page-storage seam between the disk and everything above it
// (buffer pools, relations, successor-list stores). *Disk is the canonical
// implementation; internal/faultdisk wraps any Store with deterministic
// fault injection. Implementations must be safe for concurrent use.
type Store interface {
	// CreateFile adds a new, empty file and returns its ID.
	CreateFile(name string) FileID
	// FileName reports the name given to CreateFile.
	FileName(f FileID) string
	// NumFiles reports the number of files on the store.
	NumFiles() int
	// NumPages reports the current length of a file in pages.
	NumPages(f FileID) int
	// Allocate extends a file by one zeroed page and returns its ID.
	Allocate(f FileID) (PageID, error)
	// Truncate discards all pages of a file.
	Truncate(f FileID)
	// Read copies page p of file f into dst, counting one page read.
	Read(f FileID, p PageID, dst *Page) error
	// Write copies src into page p of file f, counting one page write.
	Write(f FileID, p PageID, src *Page) error
	// Stats returns the cumulative I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()

	// Sealed and View are the zero-copy read path: pages of a sealed
	// (immutable) file are handed out as stable pointers into the shared
	// storage instead of being copied on every read, and the buffer pool
	// pins them without a copy. View is valid only for files on which
	// Sealed reports true, the returned page must never be written through,
	// and the pointer stays valid for the life of the store (a sealed file
	// is never truncated, extended or mutated). A View counts as one page
	// read, exactly like Read, so cost accounting is unchanged by the
	// zero-copy path. A wrapper forwards both to the store it wraps.

	// Sealed reports whether file f is sealed (immutable).
	Sealed(f FileID) bool
	// View returns a stable read-only pointer to page p of sealed file f,
	// counting one page read.
	View(f FileID, p PageID) (*Page, error)
}

// transientFault is implemented by errors representing storage faults that
// may succeed on retry (injected failures, simulated device hiccups), as
// opposed to structural errors (out-of-range page, missing file) that will
// never stop failing.
type transientFault interface {
	TransientStorageFault() bool
}

// IsTransient reports whether err (anywhere in its chain) is a transient
// storage fault. Servers use this to answer 503-with-retry rather than 500,
// and clients use it to decide whether a retry is worthwhile.
func IsTransient(err error) bool {
	if errors.Is(err, ErrIOInjected) {
		return true
	}
	var tf transientFault
	return errors.As(err, &tf) && tf.TransientStorageFault()
}

// file is one striped disk file: its own lock guards the page array and
// page contents while the file is mutable. Once sealed, both the array and
// the contents are frozen and readers skip the lock entirely.
type file struct {
	mu     sync.RWMutex
	name   string
	sealed atomic.Bool
	pages  []*Page
}

// Disk is a simulated multi-file disk.
type Disk struct {
	mu    sync.Mutex              // serializes appends to the catalog
	files atomic.Pointer[[]*file] // the catalog; entries are never changed or removed once published

	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64

	// free holds the *Page values of truncated files for Allocate to reuse.
	free sync.Pool

	// Failure injection. The armed flag keeps the hot path lock-free; the
	// countdown itself is exact under injectMu so tests can pin precise
	// failure points even under concurrency.
	armed     atomic.Bool
	injectMu  sync.Mutex
	failAfter int64
}

var _ Store = (*Disk)(nil)

// New returns an empty disk.
func New() *Disk {
	d := &Disk{failAfter: -1}
	d.files.Store(new([]*file))
	return d
}

// CreateFile adds a new, empty file and returns its ID. The name is used
// only for diagnostics.
func (d *Disk) CreateFile(name string) FileID {
	return d.addFile(&file{name: name})
}

// addFile appends fl to the catalog and publishes the longer catalog. The
// append may write into spare capacity of the array readers are using, but
// only past the length any of them has seen.
func (d *Disk) addFile(fl *file) FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	files := append(d.catalog(), fl)
	d.files.Store(&files)
	return FileID(len(files) - 1)
}

// catalog returns the current file table. It takes no lock: the slice it
// returns is never modified within its length.
func (d *Disk) catalog() []*file { return *d.files.Load() }

// lookup resolves a FileID to its striped file. The returned pointer stays
// valid: files are never removed and the structs are heap-allocated.
func (d *Disk) lookup(f FileID) (*file, error) {
	files := d.catalog()
	if int(f) < 0 || int(f) >= len(files) {
		return nil, fmt.Errorf("pagedisk: no such file %d", f)
	}
	return files[f], nil
}

// mustLookup is lookup for the methods whose signatures predate error
// returns (catalog queries on invalid IDs are programming errors).
func (d *Disk) mustLookup(f FileID) *file {
	fl, err := d.lookup(f)
	if err != nil {
		panic(err.Error())
	}
	return fl
}

// FileName reports the name given to CreateFile.
func (d *Disk) FileName(f FileID) string {
	return d.mustLookup(f).name
}

// NumFiles reports the number of files on the disk.
func (d *Disk) NumFiles() int { return len(d.catalog()) }

// NumPages reports the current length of a file in pages.
func (d *Disk) NumPages(f FileID) int {
	fl := d.mustLookup(f)
	if fl.sealed.Load() {
		return len(fl.pages)
	}
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	return len(fl.pages)
}

// Allocate extends a file by one zeroed page and returns its ID. The
// in-memory disk never fails an allocation on a mutable file; the error
// return also serves Store implementations that do (fault injection,
// future bounded disks).
func (d *Disk) Allocate(f FileID) (PageID, error) {
	fl, err := d.lookup(f)
	if err != nil {
		return InvalidPage, err
	}
	if fl.sealed.Load() {
		return InvalidPage, fmt.Errorf("pagedisk: allocate on sealed file %q: %w", fl.name, ErrSealed)
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	pg, _ := d.free.Get().(*Page)
	if pg == nil {
		pg = new(Page)
	} else {
		*pg = Page{}
	}
	fl.pages = append(fl.pages, pg)
	d.allocs.Add(1)
	return PageID(len(fl.pages) - 1), nil
}

// Truncate discards all pages of a file, handing them to the disk's pool
// for Allocate to reuse. It models dropping a temporary file; no I/O is
// charged. Truncating a sealed file is a programming error.
func (d *Disk) Truncate(f FileID) {
	fl := d.mustLookup(f)
	if fl.sealed.Load() {
		panic(fmt.Sprintf("pagedisk: truncate of sealed file %q", fl.name))
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, pg := range fl.pages {
		d.free.Put(pg)
	}
	fl.pages = nil
}

// Seal marks file f immutable. From this point its pages can be read with
// no locking and handed out as zero-copy views; writes, allocations and
// truncation are rejected. Sealing is one-way and happens at database
// construction time, before any concurrent access.
func (d *Disk) Seal(f FileID) {
	d.mustLookup(f).sealed.Store(true)
}

// SealAll seals every file currently on the disk — the "database is built,
// serving starts now" transition.
func (d *Disk) SealAll() {
	for _, fl := range d.catalog() {
		fl.sealed.Store(true)
	}
}

// Sealed reports whether file f is sealed. Unknown files report false.
func (d *Disk) Sealed(f FileID) bool {
	fl, err := d.lookup(f)
	return err == nil && fl.sealed.Load()
}

func checkPage(fl *file, p PageID) error {
	if p < 0 || int(p) >= len(fl.pages) {
		return fmt.Errorf("pagedisk: page %d out of range for file %q (%d pages)",
			p, fl.name, len(fl.pages))
	}
	return nil
}

func (d *Disk) inject() error {
	if !d.armed.Load() {
		return nil
	}
	d.injectMu.Lock()
	defer d.injectMu.Unlock()
	if d.failAfter == 0 {
		return ErrIOInjected
	}
	d.failAfter--
	return nil
}

// Read copies page p of file f into dst and counts one page read. Sealed
// files are read without taking any lock.
func (d *Disk) Read(f FileID, p PageID, dst *Page) error {
	fl, err := d.lookup(f)
	if err != nil {
		return err
	}
	if fl.sealed.Load() {
		if err := checkPage(fl, p); err != nil {
			return err
		}
		if err := d.inject(); err != nil {
			return err
		}
		*dst = *fl.pages[p]
		d.reads.Add(1)
		return nil
	}
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	if err := checkPage(fl, p); err != nil {
		return err
	}
	if err := d.inject(); err != nil {
		return err
	}
	*dst = *fl.pages[p]
	d.reads.Add(1)
	return nil
}

// View returns a stable zero-copy pointer to page p of sealed file f,
// counting one page read (the cost model is indifferent to whether the
// transfer copied). Callers must not write
// through the returned page.
func (d *Disk) View(f FileID, p PageID) (*Page, error) {
	fl, err := d.lookup(f)
	if err != nil {
		return nil, err
	}
	if !fl.sealed.Load() {
		return nil, fmt.Errorf("pagedisk: zero-copy view of unsealed file %q", fl.name)
	}
	if err := checkPage(fl, p); err != nil {
		return nil, err
	}
	if err := d.inject(); err != nil {
		return nil, err
	}
	d.reads.Add(1)
	return fl.pages[p], nil
}

// Write copies src into page p of file f and counts one page write.
func (d *Disk) Write(f FileID, p PageID, src *Page) error {
	fl, err := d.lookup(f)
	if err != nil {
		return err
	}
	if fl.sealed.Load() {
		return fmt.Errorf("pagedisk: write to sealed file %q: %w", fl.name, ErrSealed)
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if err := checkPage(fl, p); err != nil {
		return err
	}
	if err := d.inject(); err != nil {
		return err
	}
	*fl.pages[p] = *src
	d.writes.Add(1)
	return nil
}

// Stats returns the cumulative I/O counters.
func (d *Disk) Stats() Stats {
	return Stats{
		Reads:  d.reads.Load(),
		Writes: d.writes.Load(),
		Allocs: d.allocs.Load(),
	}
}

// ResetStats zeroes the I/O counters. Harnesses call this after loading the
// input relation so that database-construction I/O is not charged to the
// query, mirroring the paper's setup where the relation pre-exists.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.allocs.Store(0)
}

// FailAfter arms failure injection: after n further successful page
// transfers, every Read, View and Write fails with ErrIOInjected. A
// negative n disarms injection.
func (d *Disk) FailAfter(n int64) {
	d.injectMu.Lock()
	d.failAfter = n
	d.injectMu.Unlock()
	d.armed.Store(n >= 0)
}
