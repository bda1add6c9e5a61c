// Package relation implements the tuple-format storage of the input graph
// relation (Section 4 and 5.1 of the paper): 8-byte (key, value) tuples, 256
// per 2048-byte page, clustered (sorted) on the key attribute, with a sparse
// clustered index kept in memory.
//
// The forward representation stores arcs as (source, destination) clustered
// on source; the dual representation used by JKB2 stores the same arcs as
// (destination, source) clustered on destination. Both are instances of the
// same Relation type: Key is the clustering attribute, Val the other one.
package relation

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

// TuplesPerPage is the tuple capacity of a page: two 4-byte integers per
// tuple, 2048-byte pages (Section 5.1).
const TuplesPerPage = pagedisk.PageSize / 8

// Tuple is one arc of the stored graph. Key is the clustering attribute.
type Tuple struct {
	Key, Val int32
}

// Relation is an immutable relation stored on the simulated disk, clustered
// on Key, with an in-memory sparse index (first and last key of every page
// plus per-page tuple counts). The paper assumes a clustered index on the
// clustering attribute and does not charge I/O for index interior pages;
// we follow that model.
type Relation struct {
	file      pagedisk.FileID
	numPages  int
	count     []uint16 // tuples on each page
	firstKey  []int32  // smallest key on each page
	lastKey   []int32  // largest key on each page
	pageStart []int32  // global index of each page's first tuple
	nTuples   int
	maxNode   int32
}

// Build sorts tuples on (Key, Val), removes exact duplicates, writes them to
// a new file on disk, and returns the relation. Building bypasses the buffer
// pool and is excluded from measured I/O (the database pre-exists the
// query); callers reset disk stats afterwards via the harness.
func Build(disk pagedisk.Store, name string, tuples []Tuple) *Relation {
	ts := make([]Tuple, len(tuples))
	copy(ts, tuples)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		return ts[i].Val < ts[j].Val
	})
	// Duplicate-arc elimination, as done by the paper's graph generator.
	dedup := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			dedup = append(dedup, t)
		}
	}
	ts = dedup

	r := &Relation{file: disk.CreateFile(name), nTuples: len(ts)}
	for lo := 0; lo < len(ts); lo += TuplesPerPage {
		hi := min(lo+TuplesPerPage, len(ts))
		r.count = append(r.count, uint16(hi-lo))
		r.pageStart = append(r.pageStart, int32(lo))
		r.firstKey = append(r.firstKey, ts[lo].Key)
		r.lastKey = append(r.lastKey, ts[hi-1].Key)
	}
	r.numPages = len(r.count)
	for _, t := range ts {
		r.maxNode = max(r.maxNode, t.Key, t.Val)
	}
	err := writePacked(disk, r.file, len(ts), TuplesPerPage, func(pg *pagedisk.Page, slot, i int) {
		binary.LittleEndian.PutUint32(pg[slot*8:], uint32(ts[i].Key))
		binary.LittleEndian.PutUint32(pg[slot*8+4:], uint32(ts[i].Val))
	})
	if err != nil {
		// The in-memory disk only fails under injection, which is not
		// armed during setup.
		panic(fmt.Sprintf("relation: build write failed: %v", err))
	}
	return r
}

// writePacked appends count fixed-size records to file f, perPage to a
// page, the last page zero-padded: put encodes record i into its slot of
// the page under construction. It is the packing loop of every bulk build
// (tuples, weight columns); like them it bypasses the buffer pool.
func writePacked(disk pagedisk.Store, f pagedisk.FileID, count, perPage int, put func(pg *pagedisk.Page, slot, i int)) error {
	for lo := 0; lo < count; lo += perPage {
		var pg pagedisk.Page
		for i := lo; i < min(lo+perPage, count); i++ {
			put(&pg, i-lo, i)
		}
		id, err := disk.Allocate(f)
		if err != nil {
			return err
		}
		if err := disk.Write(f, id, &pg); err != nil {
			return err
		}
	}
	return nil
}

// BuildInverse builds the dual representation: the same arcs with key and
// value swapped, clustered on the original value attribute. Used by JKB2.
func BuildInverse(disk pagedisk.Store, name string, tuples []Tuple) *Relation {
	inv := make([]Tuple, len(tuples))
	for i, t := range tuples {
		inv[i] = Tuple{Key: t.Val, Val: t.Key}
	}
	return Build(disk, name, inv)
}

// File returns the disk file holding the relation.
func (r *Relation) File() pagedisk.FileID { return r.file }

// NumPages reports the relation's size in pages.
func (r *Relation) NumPages() int { return r.numPages }

// NumTuples reports the number of (distinct) stored tuples.
func (r *Relation) NumTuples() int { return r.nTuples }

// MaxNode reports the largest node ID appearing in any tuple.
func (r *Relation) MaxNode() int32 { return r.maxNode }

func decode(pg *pagedisk.Page, i int) Tuple {
	off := i * 8
	return Tuple{
		Key: int32(binary.LittleEndian.Uint32(pg[off:])),
		Val: int32(binary.LittleEndian.Uint32(pg[off+4:])),
	}
}

// Scan reads the relation sequentially through the pool, invoking fn for
// every tuple. It stops early if fn returns false.
func (r *Relation) Scan(pool *buffer.Pool, fn func(Tuple) bool) error {
	for p := 0; p < r.numPages; p++ {
		h, err := pool.Get(r.file, pagedisk.PageID(p))
		if err != nil {
			return err
		}
		data := h.Data()
		n := int(r.count[p])
		stop := false
		for i := 0; i < n; i++ {
			if !fn(decode(data, i)) {
				stop = true
				break
			}
		}
		pool.Unpin(&h, false)
		if stop {
			return nil
		}
	}
	return nil
}

// firstPageFor returns the index of the first page that may contain key,
// using the in-memory sparse index, or numPages if no page can.
func (r *Relation) firstPageFor(key int32) int {
	return sort.Search(r.numPages, func(p int) bool { return r.lastKey[p] >= key })
}

// Probe reads, through the pool, every tuple whose Key equals key, calling
// fn for each Val. This is the clustered-index lookup used to walk the
// graph node by node; because the relation is clustered, a probe touches
// one page in the common case. It returns the values visited count.
func (r *Relation) Probe(pool *buffer.Pool, key int32, fn func(val int32) bool) (int, error) {
	return r.probeFrom(pool, r.firstPageFor(key), key, nil, func(val, _ int32) bool { return fn(val) })
}

// probeFrom is the one page walk under Probe, ProbeIndexed and
// ProbeWeighted: from page start — the first that may hold key, or one an
// index descent landed on just before it — it visits every tuple whose Key
// equals key, reading the tuple's weight from col when there is one, until
// fn returns false.
func (r *Relation) probeFrom(pool *buffer.Pool, start int, key int32, col *WeightColumn, fn func(val, weight int32) bool) (int, error) {
	visited := 0
	more := true
	for p := start; more && p < r.numPages && r.firstKey[p] <= key; p++ {
		if r.lastKey[p] < key {
			continue // a separator descent lands one page early when the key falls between pages
		}
		h, err := pool.Get(r.file, pagedisk.PageID(p))
		if err != nil {
			return visited, err
		}
		data := h.Data()
		n := int(r.count[p])
		// Binary search for the first tuple with this key on the page.
		i := sort.Search(n, func(i int) bool { return decode(data, i).Key >= key })
		for ; more && i < n; i++ {
			t := decode(data, i)
			if t.Key != key {
				break
			}
			var w int32
			if col != nil {
				if w, err = col.weightAt(pool, r.pageStart[p]+int32(i)); err != nil {
					pool.Unpin(&h, false)
					return visited, err
				}
			}
			visited++
			more = fn(t.Val, w)
		}
		pool.Unpin(&h, false)
	}
	return visited, nil
}

// Meta is the relation's in-memory catalog — the sparse clustered index
// and size counters — in a serializable form, used by database snapshots.
type Meta struct {
	File      pagedisk.FileID
	NumPages  int
	Count     []uint16
	FirstKey  []int32
	LastKey   []int32
	PageStart []int32
	NTuples   int
	MaxNode   int32
}

// Meta exports the relation's catalog.
func (r *Relation) Meta() Meta {
	return Meta{
		File:      r.file,
		NumPages:  r.numPages,
		Count:     r.count,
		FirstKey:  r.firstKey,
		LastKey:   r.lastKey,
		PageStart: r.pageStart,
		NTuples:   r.nTuples,
		MaxNode:   r.maxNode,
	}
}

// Restore reconstructs a relation from its catalog; the page data must
// already be present in the referenced disk file (e.g. via pagedisk.Load).
func Restore(m Meta) *Relation {
	return &Relation{
		file:      m.File,
		numPages:  m.NumPages,
		count:     m.Count,
		firstKey:  m.FirstKey,
		lastKey:   m.LastKey,
		pageStart: m.PageStart,
		nTuples:   m.NTuples,
		maxNode:   m.MaxNode,
	}
}
