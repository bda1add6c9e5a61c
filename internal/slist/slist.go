// Package slist implements the successor-list storage engine of the study
// (Sections 4 and 5.1 of the paper).
//
// Successor lists (and the successor/predecessor trees of the SPN and JKB
// algorithms, which are lists with sign-encoded structure) are stored on
// 2048-byte pages, each divided into 30 fixed-length blocks of 15 four-byte
// entries — 450 successors per page, exactly the paper's layout. A list is
// a chain of blocks linked by (page, block) pointers.
//
// Clustering follows the paper:
//
//   - inter-list clustering: new lists are packed onto a shared fill page in
//     creation order (the restructuring phase creates them in the order the
//     computation phase will consume them);
//   - intra-list clustering: a growing list first takes free blocks on its
//     own page; when the page is full, a *list replacement policy* chooses
//     another list on the page to relocate (a page split, Section 5.1), so
//     the growing list's blocks stay together. A list that fills a whole
//     page spills onto dedicated overflow pages.
//
// The per-list directory (head, tail, length) is kept in memory, mirroring
// the paper's in-memory node-to-list mapping. All page traffic goes through
// the buffer pool and is therefore counted as page I/O.
package slist

import (
	"encoding/binary"
	"fmt"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

const (
	// BlocksPerPage and BlockEntries give the paper's page layout:
	// 30 blocks of 15 successors, 450 successors per 2048-byte page.
	BlocksPerPage = 30
	BlockEntries  = 15

	headerSize = 8
	blockSize  = 68 // 15*4 entry bytes + 4 next-page + 1 next-blk + 1 used + 2 owner
)

// Ref addresses one block on one page.
type Ref struct {
	Page pagedisk.PageID
	Blk  int16
}

// nilRef marks the end of a chain or an empty list.
var nilRef = Ref{Page: pagedisk.InvalidPage, Blk: -1}

func (r Ref) valid() bool { return r.Page != pagedisk.InvalidPage }

// Stats counts storage-engine events. Page I/O is accounted by the buffer
// pool and disk; these counters capture the split machinery itself.
type Stats struct {
	Splits       int64 // page-split events (a victim list relocated)
	ListsMoved   int64 // victim lists relocated
	EntriesMoved int64 // entries copied while relocating
	Overflows    int64 // pages dedicated to a single large list
}

// Store is a collection of numbered successor lists in one disk file.
// It is not safe for concurrent use.
type Store struct {
	pool   *buffer.Pool
	file   pagedisk.FileID
	victim ListPolicy

	head, tail []Ref
	length     []int32
	lastUse    []int64
	clock      int64

	// fillPage is the shared page new lists are packed onto.
	fillPage pagedisk.PageID

	stats Stats

	// Scratch buffers reused across calls so the hot paths (appends that
	// split, chain walks) do not allocate per operation.
	ownerScratch []int32
	relocScratch []int32
	pageScratch  []pagedisk.PageID

	// clusterOff disables inter-list packing (each new list gets its own
	// page); used by the clustering ablation.
	clusterOff bool
}

// NewStore creates a store for lists numbered 0..numLists-1 in a fresh disk
// file. Lists start empty. The pool must have at least 4 frames (append
// plus split relocation each hold up to two pins).
func NewStore(pool *buffer.Pool, name string, numLists int, victim ListPolicy) *Store {
	if pool.Size() < 4 {
		panic("slist: buffer pool must have at least 4 frames")
	}
	s := &Store{
		pool:     pool,
		file:     pool.Disk().CreateFile(name),
		victim:   victim,
		head:     make([]Ref, numLists),
		tail:     make([]Ref, numLists),
		length:   make([]int32, numLists),
		lastUse:  make([]int64, numLists),
		fillPage: pagedisk.InvalidPage,
	}
	for i := range s.head {
		s.head[i], s.tail[i] = nilRef, nilRef
	}
	return s
}

// SetClustering enables or disables inter-list packing of new lists onto a
// shared fill page. On by default; the ablation experiment turns it off.
func (s *Store) SetClustering(on bool) { s.clusterOff = !on }

// File returns the store's disk file.
func (s *Store) File() pagedisk.FileID { return s.file }

// Pool returns the buffer pool the store operates through.
func (s *Store) Pool() *buffer.Pool { return s.pool }

// Len reports the number of entries in list id.
func (s *Store) Len(id int32) int { return int(s.length[id]) }

// Stats returns split-machinery counters.
func (s *Store) Stats() Stats { return s.stats }

// --- on-page block accessors -------------------------------------------

func blockOff(blk int16) int { return headerSize + int(blk)*blockSize }

func pageBitmap(pg *pagedisk.Page) uint32 {
	return binary.LittleEndian.Uint32(pg[0:4])
}

func setPageBitmap(pg *pagedisk.Page, bm uint32) {
	binary.LittleEndian.PutUint32(pg[0:4], bm)
}

func setBlockEntry(pg *pagedisk.Page, blk int16, i int, v int32) {
	binary.LittleEndian.PutUint32(pg[blockOff(blk)+4*i:], uint32(v))
}

func blockNext(pg *pagedisk.Page, blk int16) Ref {
	off := blockOff(blk)
	p := int32(binary.LittleEndian.Uint32(pg[off+60:]))
	b := int8(pg[off+64])
	if p < 0 {
		return nilRef
	}
	return Ref{Page: pagedisk.PageID(p), Blk: int16(b)}
}

func setBlockNext(pg *pagedisk.Page, blk int16, next Ref) {
	off := blockOff(blk)
	binary.LittleEndian.PutUint32(pg[off+60:], uint32(next.Page))
	pg[off+64] = byte(int8(next.Blk))
}

func blockUsed(pg *pagedisk.Page, blk int16) int { return int(pg[blockOff(blk)+65]) }

func setBlockUsed(pg *pagedisk.Page, blk int16, n int) { pg[blockOff(blk)+65] = byte(n) }

func blockOwner(pg *pagedisk.Page, blk int16) int32 {
	return int32(binary.LittleEndian.Uint16(pg[blockOff(blk)+66:]))
}

func setBlockOwner(pg *pagedisk.Page, blk int16, id int32) {
	if id < 0 || id > 0xFFFF {
		panic(fmt.Sprintf("slist: list id %d out of range for block owner field", id))
	}
	binary.LittleEndian.PutUint16(pg[blockOff(blk)+66:], uint16(id))
}

// freeBlockOn returns a free block index on the page, or -1.
func freeBlockOn(pg *pagedisk.Page) int16 {
	bm := pageBitmap(pg)
	for b := int16(0); b < BlocksPerPage; b++ {
		if bm&(1<<uint(b)) == 0 {
			return b
		}
	}
	return -1
}

// claimBlock marks a block allocated and initializes it for owner id.
func claimBlock(pg *pagedisk.Page, blk int16, id int32) {
	setPageBitmap(pg, pageBitmap(pg)|1<<uint(blk))
	setBlockNext(pg, blk, nilRef)
	setBlockUsed(pg, blk, 0)
	setBlockOwner(pg, blk, id)
}

// releaseBlock marks a block free.
func releaseBlock(pg *pagedisk.Page, blk int16) {
	setPageBitmap(pg, pageBitmap(pg)&^(1<<uint(blk)))
}

// --- append path ---------------------------------------------------------

// Append adds v at the end of list id.
func (s *Store) Append(id int32, v int32) error {
	return s.AppendAll(id, []int32{v})
}

// AppendAll appends every value in vs to list id. It holds the tail page
// pinned across consecutive same-page writes, so bulk appends cost one
// buffer access per block rather than per entry.
func (s *Store) AppendAll(id int32, vs []int32) error {
	if len(vs) == 0 {
		return nil
	}
	s.clock++
	s.lastUse[id] = s.clock
	i := 0
	for i < len(vs) {
		// Ensure the tail block has room, splitting/overflowing as needed.
		if err := s.ensureTailRoom(id); err != nil {
			return err
		}
		t := s.tail[id]
		h, err := s.pool.Get(s.file, t.Page)
		if err != nil {
			return err
		}
		pg := h.Data()
		used := blockUsed(pg, t.Blk)
		for i < len(vs) && used < BlockEntries {
			setBlockEntry(pg, t.Blk, used, vs[i])
			used++
			i++
			s.length[id]++
		}
		setBlockUsed(pg, t.Blk, used)
		s.pool.Unpin(&h, true)
	}
	return nil
}

// ensureTailRoom guarantees that s.tail[id] names a block with at least one
// free entry slot, growing the chain if necessary.
func (s *Store) ensureTailRoom(id int32) error {
	if !s.tail[id].valid() {
		// First block of a new list: pack onto the shared fill page.
		ref, err := s.allocFirstBlock(id)
		if err != nil {
			return err
		}
		s.head[id], s.tail[id] = ref, ref
		return nil
	}
	t := s.tail[id]
	h, err := s.pool.Get(s.file, t.Page)
	if err != nil {
		return err
	}
	if blockUsed(h.Data(), t.Blk) < BlockEntries {
		s.pool.Unpin(&h, false)
		return nil
	}
	// Tail block full: try a free block on the same page (intra-list
	// clustering).
	if blk := freeBlockOn(h.Data()); blk >= 0 {
		claimBlock(h.Data(), blk, id)
		setBlockNext(h.Data(), t.Blk, Ref{Page: t.Page, Blk: blk})
		s.tail[id] = Ref{Page: t.Page, Blk: blk}
		s.pool.Unpin(&h, true)
		return nil
	}
	// Page full. If other lists own blocks here, relocate one (page split);
	// otherwise spill to a dedicated overflow page.
	victims := s.ownersOnPage(h.Data(), id)
	s.pool.Unpin(&h, false)
	if len(victims) > 0 {
		if err := s.split(t.Page, id, victims); err != nil {
			return err
		}
		// A block was freed on the page; claim it.
		h2, err := s.pool.Get(s.file, t.Page)
		if err != nil {
			return err
		}
		blk := freeBlockOn(h2.Data())
		if blk < 0 {
			s.pool.Unpin(&h2, false)
			return fmt.Errorf("slist: split of page %d freed no block", t.Page)
		}
		claimBlock(h2.Data(), blk, id)
		setBlockNext(h2.Data(), t.Blk, Ref{Page: t.Page, Blk: blk})
		s.tail[id] = Ref{Page: t.Page, Blk: blk}
		s.pool.Unpin(&h2, true)
		return nil
	}
	return s.overflow(id)
}

// allocFirstBlock places the first block of list id, packing new lists onto
// the shared fill page unless clustering is disabled.
func (s *Store) allocFirstBlock(id int32) (Ref, error) {
	if !s.clusterOff && s.fillPage != pagedisk.InvalidPage {
		h, err := s.pool.Get(s.file, s.fillPage)
		if err != nil {
			return nilRef, err
		}
		if blk := freeBlockOn(h.Data()); blk >= 0 {
			claimBlock(h.Data(), blk, id)
			ref := Ref{Page: s.fillPage, Blk: blk}
			s.pool.Unpin(&h, true)
			return ref, nil
		}
		s.pool.Unpin(&h, false)
	}
	pid, h, err := s.pool.GetNew(s.file)
	if err != nil {
		return nilRef, err
	}
	claimBlock(h.Data(), 0, id)
	s.pool.Unpin(&h, true)
	if !s.clusterOff {
		s.fillPage = pid
	}
	return Ref{Page: pid, Blk: 0}, nil
}

// overflow extends list id onto a fresh page of its own.
func (s *Store) overflow(id int32) error {
	pid, h, err := s.pool.GetNew(s.file)
	if err != nil {
		return err
	}
	claimBlock(h.Data(), 0, id)
	s.pool.Unpin(&h, true)
	t := s.tail[id]
	ht, err := s.pool.Get(s.file, t.Page)
	if err != nil {
		return err
	}
	setBlockNext(ht.Data(), t.Blk, Ref{Page: pid, Blk: 0})
	s.pool.Unpin(&ht, true)
	s.tail[id] = Ref{Page: pid, Blk: 0}
	s.stats.Overflows++
	return nil
}

// ownersOnPage lists the distinct list IDs other than exclude that own
// blocks on the page. The result aliases the store's scratch buffer and is
// valid until the next call; a page holds at most BlocksPerPage owners, so
// linear dedup beats a map allocation.
func (s *Store) ownersOnPage(pg *pagedisk.Page, exclude int32) []int32 {
	bm := pageBitmap(pg)
	out := s.ownerScratch[:0]
	for b := int16(0); b < BlocksPerPage; b++ {
		if bm&(1<<uint(b)) == 0 {
			continue
		}
		o := blockOwner(pg, b)
		if o == exclude {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == o {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o)
		}
	}
	s.ownerScratch = out
	return out
}

// split relocates one victim list off the page so that the growing list can
// take its blocks. The victim is chosen by the store's list replacement
// policy (Section 5.1).
func (s *Store) split(page pagedisk.PageID, growing int32, victims []int32) error {
	v := s.victim.Victim(victims, func(id int32) int32 { return s.length[id] },
		func(id int32) int64 { return s.lastUse[id] })
	s.stats.Splits++
	return s.relocate(v)
}

// relocate moves an entire list to fresh storage: its entries are read,
// its blocks freed, and the contents re-appended onto a dedicated page run.
// All page traffic goes through the pool and is counted.
func (s *Store) relocate(id int32) error {
	// Read the full contents into the reusable scratch buffer (relocation
	// happens on every split; per-split allocation would dominate).
	vals := s.relocScratch[:0]
	var it Iterator
	it.Reset(s, id)
	for {
		blk, ok := it.NextBlock()
		if !ok {
			break
		}
		vals = append(vals, blk...)
	}
	it.Close()
	s.relocScratch = vals
	if err := it.Err(); err != nil {
		return err
	}
	// Free the old chain.
	if err := s.freeChain(id); err != nil {
		return err
	}
	// Rewrite onto dedicated pages (the relocated list becomes sole owner
	// of its new pages, so its own later growth cannot cascade splits).
	s.stats.ListsMoved++
	s.stats.EntriesMoved += int64(len(vals))
	tail := nilRef
	for i := 0; i < len(vals); i += BlockEntries {
		end := i + BlockEntries
		if end > len(vals) {
			end = len(vals)
		}
		var ref Ref
		if tail.valid() && s.pageHasRoom(tail.Page) {
			h, err := s.pool.Get(s.file, tail.Page)
			if err != nil {
				return err
			}
			blk := freeBlockOn(h.Data())
			claimBlock(h.Data(), blk, id)
			ref = Ref{Page: tail.Page, Blk: blk}
			for j := i; j < end; j++ {
				setBlockEntry(h.Data(), blk, j-i, vals[j])
			}
			setBlockUsed(h.Data(), blk, end-i)
			s.pool.Unpin(&h, true)
		} else {
			pid, h, err := s.pool.GetNew(s.file)
			if err != nil {
				return err
			}
			claimBlock(h.Data(), 0, id)
			ref = Ref{Page: pid, Blk: 0}
			for j := i; j < end; j++ {
				setBlockEntry(h.Data(), 0, j-i, vals[j])
			}
			setBlockUsed(h.Data(), 0, end-i)
			s.pool.Unpin(&h, true)
		}
		if tail.valid() {
			h, err := s.pool.Get(s.file, tail.Page)
			if err != nil {
				return err
			}
			setBlockNext(h.Data(), tail.Blk, ref)
			s.pool.Unpin(&h, true)
		} else {
			s.head[id] = ref
		}
		tail = ref
	}
	if len(vals) == 0 {
		s.head[id], s.tail[id] = nilRef, nilRef
	} else {
		s.tail[id] = tail
	}
	return nil
}

func (s *Store) pageHasRoom(pid pagedisk.PageID) bool {
	h, err := s.pool.Get(s.file, pid)
	if err != nil {
		return false
	}
	ok := freeBlockOn(h.Data()) >= 0
	s.pool.Unpin(&h, false)
	return ok
}

// freeChain releases every block of list id, leaving the directory entry
// empty.
func (s *Store) freeChain(id int32) error {
	ref := s.head[id]
	for ref.valid() {
		h, err := s.pool.Get(s.file, ref.Page)
		if err != nil {
			return err
		}
		next := blockNext(h.Data(), ref.Blk)
		releaseBlock(h.Data(), ref.Blk)
		s.pool.Unpin(&h, true)
		ref = next
	}
	s.head[id], s.tail[id] = nilRef, nilRef
	return nil
}

// Clear empties list id, releasing its blocks for reuse.
func (s *Store) Clear(id int32) error {
	if err := s.freeChain(id); err != nil {
		return err
	}
	s.length[id] = 0
	return nil
}

// --- read path -----------------------------------------------------------

// Iterator walks one list front to back, a block (NextBlock) or an entry
// (Next) at a time, holding at most one page pinned. Callers must Close it
// and should check Err.
//
// The iterator is defensive about on-page state: a corrupt chain (block
// index outside the page layout, an entry count exceeding the block size,
// or a cycle of next-pointers) surfaces as an error from Err, never as an
// out-of-bounds access or an unterminated walk. Pages reach this code
// through the buffer pool from a store that fault injection or a damaged
// snapshot may have corrupted, so the read path cannot trust them.
type Iterator struct {
	s     *Store
	cur   Ref
	read  bool // cur's entries have been returned
	steps int  // blocks visited, bounds the walk against cyclic chains
	// limit caches the cycle bound, (pages in the file + 1)·BlocksPerPage;
	// it is re-read only when steps passes it, so a healthy walk takes no
	// disk lock.
	limit  int
	h      buffer.Handle
	pinned pagedisk.PageID
	err    error

	buf  [BlockEntries]int32 // the last decoded block
	rest []int32             // its entries Next has not served yet
}

// NewIterator returns an iterator positioned before the first entry.
// Hot loops that walk many lists should hold a value Iterator and Reset it
// instead, which avoids one heap allocation per list.
func (s *Store) NewIterator(id int32) *Iterator {
	it := new(Iterator)
	it.Reset(s, id)
	return it
}

// Reset repositions the iterator before the first entry of list id in
// store s, releasing any page the previous walk still holds pinned. A
// zero-value Iterator may be Reset directly; after Reset the iterator is
// exactly as fresh as one from NewIterator.
func (it *Iterator) Reset(s *Store, id int32) {
	if it.s != nil {
		it.release()
	}
	s.clock++
	s.lastUse[id] = s.clock
	limit := 0
	if it.s == s {
		limit = it.limit // a file never shrinks under a live store
	}
	*it = Iterator{s: s, cur: s.head[id], limit: limit, pinned: pagedisk.InvalidPage}
}

// NextBlock returns the unread entries of the next non-empty block, decoded
// into a buffer the iterator owns and overwrites on the following call. ok
// is false at the end of the list or on error (check Err). It is the
// iterator's only page walk — Next serves entries from it — so a page
// stays pinned while its blocks are read and is released on the move to
// another page, and a list costs the same buffer traffic read either way.
func (it *Iterator) NextBlock() (entries []int32, ok bool) {
	if len(it.rest) > 0 {
		entries, it.rest = it.rest, nil
		return entries, true
	}
	for {
		if !it.cur.valid() || it.err != nil {
			it.release()
			return nil, false
		}
		if it.cur.Blk < 0 || it.cur.Blk >= BlocksPerPage {
			it.err = fmt.Errorf("slist: corrupt chain: block index %d outside page layout", it.cur.Blk)
			it.release()
			return nil, false
		}
		if it.pinned != it.cur.Page {
			it.release()
			h, err := it.s.pool.Get(it.s.file, it.cur.Page)
			if err != nil {
				it.err = err
				return nil, false
			}
			it.h = h
			it.pinned = it.cur.Page
		}
		pg := it.h.Data()
		if !it.read {
			used := blockUsed(pg, it.cur.Blk)
			if used > BlockEntries {
				it.err = fmt.Errorf("slist: corrupt block %d on page %d: %d entries used, capacity %d",
					it.cur.Blk, it.cur.Page, used, BlockEntries)
				it.release()
				return nil, false
			}
			it.read = true
			if used > 0 {
				raw := pg[blockOff(it.cur.Blk):][:4*used]
				for i := range used {
					it.buf[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
				}
				return it.buf[:used], true
			}
		}
		// A well-formed chain visits each block at most once; a walk longer
		// than every block in the file is a next-pointer cycle.
		if it.steps++; it.steps > it.limit {
			it.limit = (it.s.pool.Disk().NumPages(it.s.file) + 1) * BlocksPerPage
			if it.steps > it.limit {
				it.err = fmt.Errorf("slist: corrupt chain: next-pointer cycle after %d blocks", it.steps)
				it.release()
				return nil, false
			}
		}
		it.cur = blockNext(pg, it.cur.Blk)
		it.read = false
	}
}

// Next returns the next entry, served from the block NextBlock last
// decoded. ok is false at the end of the list or on error (check Err).
func (it *Iterator) Next() (v int32, ok bool) {
	if len(it.rest) == 0 {
		if it.rest, ok = it.NextBlock(); !ok {
			return 0, false
		}
	}
	v, it.rest = it.rest[0], it.rest[1:]
	return v, true
}

// Err reports the first error the iterator encountered, if any.
func (it *Iterator) Err() error { return it.err }

func (it *Iterator) release() {
	if it.pinned != pagedisk.InvalidPage {
		it.s.pool.Unpin(&it.h, false)
		it.pinned = pagedisk.InvalidPage
	}
}

// Close releases any pinned page. Safe to call multiple times.
func (it *Iterator) Close() { it.release() }

// ReadAll returns the full contents of list id.
func (s *Store) ReadAll(id int32) ([]int32, error) {
	out := make([]int32, 0, s.length[id])
	it := s.NewIterator(id)
	for {
		blk, ok := it.NextBlock()
		if !ok {
			break
		}
		out = append(out, blk...)
	}
	it.Close()
	return out, it.Err()
}

// PinList walks the chain of list id and returns one pinned handle per
// distinct page, in first-visit order. Used by the Hybrid algorithm to fix
// the diagonal block in memory. The caller must UnpinAll the result.
// If the pool runs out of frames the already-acquired handles are released
// and buffer.ErrNoFrames is returned, which the caller treats as the signal
// to reblock.
func (s *Store) PinList(id int32) ([]buffer.Handle, error) {
	var handles []buffer.Handle
	seen := s.seenPages()
	ref := s.head[id]
	for ref.valid() {
		if !pageSeen(seen, ref.Page) {
			h, err := s.pool.Get(s.file, ref.Page)
			if err != nil {
				s.UnpinAll(handles)
				return nil, err
			}
			seen = append(seen, ref.Page)
			s.pageScratch = seen
			handles = append(handles, h)
		}
		// The page is pinned; read the next pointer through the pool (hit).
		h, err := s.pool.Get(s.file, ref.Page)
		if err != nil {
			s.UnpinAll(handles)
			return nil, err
		}
		next := blockNext(h.Data(), ref.Blk)
		s.pool.Unpin(&h, false)
		ref = next
	}
	return handles, nil
}

// UnpinAll releases handles returned by PinList.
func (s *Store) UnpinAll(handles []buffer.Handle) {
	for i := range handles {
		s.pool.Unpin(&handles[i], false)
	}
}

// FlushList walks the chain of list id and writes every distinct dirty
// page it touches back to disk — the paper's "write the expanded lists of
// the query source nodes out to disk" step. Locating the chain goes
// through the buffer pool and is charged as usual.
func (s *Store) FlushList(id int32) error {
	seen := s.seenPages()
	ref := s.head[id]
	for ref.valid() {
		h, err := s.pool.Get(s.file, ref.Page)
		if err != nil {
			return err
		}
		next := blockNext(h.Data(), ref.Blk)
		s.pool.Unpin(&h, false)
		if !pageSeen(seen, ref.Page) {
			seen = append(seen, ref.Page)
			s.pageScratch = seen
			if err := s.pool.FlushPage(s.file, ref.Page); err != nil {
				return err
			}
		}
		ref = next
	}
	return nil
}

// seenPages returns the empty reusable distinct-page scratch buffer. A
// list's chain touches few distinct pages, so linear membership tests
// (pageSeen) are cheaper than a per-call map.
func (s *Store) seenPages() []pagedisk.PageID { return s.pageScratch[:0] }

func pageSeen(seen []pagedisk.PageID, p pagedisk.PageID) bool {
	for _, q := range seen {
		if q == p {
			return true
		}
	}
	return false
}

// DiscardAll invalidates every resident page of the store without writing,
// dropping intermediate results that are no longer needed.
func (s *Store) DiscardAll() { s.pool.DiscardFile(s.file) }
