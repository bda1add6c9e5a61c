package relation

import (
	"encoding/binary"
	"fmt"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

// A disk-resident B+-tree over the relation's clustering key. The paper
// assumes a clustered index whose interior pages cost no I/O (our default
// Probe uses the equivalent in-memory sparse index); this access path
// stores the interior levels on disk and charges their traversal through
// the buffer pool, so the assumption can be measured rather than taken on
// faith (the `ablation-index` experiment).
//
// The relation is immutable, so the tree is bulk-loaded bottom-up: the
// relation's own sorted pages are the leaves, and each interior page holds
// (separator key, child page) entries — 255 per 2048-byte page. Interior
// page layout: count int32, level int32, then (key int32, child int32)
// pairs. Level 1 children are leaf (relation) page numbers; higher levels
// point into the index file itself.

// btreeFanout is the entry capacity of one interior page.
const btreeFanout = (pagedisk.PageSize - 8) / 8

// BTree is the disk-resident index of one relation.
type BTree struct {
	file   pagedisk.FileID
	root   pagedisk.PageID
	levels int // interior levels (0 = relation fits without an index)
}

// BuildBTree bulk-loads the index from the relation's page summaries.
// Building bypasses the buffer pool (database construction is not charged
// to queries).
func BuildBTree(disk pagedisk.Store, name string, r *Relation) (*BTree, error) {
	bt := &BTree{file: disk.CreateFile(name), root: pagedisk.InvalidPage}
	if r.numPages <= 1 {
		return bt, nil // zero or one leaf: no interior level needed
	}
	// Level 1: separators over the relation's leaf pages.
	type entry struct {
		key   int32
		child int32
	}
	level := make([]entry, r.numPages)
	for p := 0; p < r.numPages; p++ {
		level[p] = entry{key: r.firstKey[p], child: int32(p)}
	}
	writeNode := func(lv int, ents []entry) (int32, error) {
		var pg pagedisk.Page
		binary.LittleEndian.PutUint32(pg[0:], uint32(len(ents)))
		binary.LittleEndian.PutUint32(pg[4:], uint32(lv))
		for i, e := range ents {
			binary.LittleEndian.PutUint32(pg[8+i*8:], uint32(e.key))
			binary.LittleEndian.PutUint32(pg[12+i*8:], uint32(e.child))
		}
		id, err := disk.Allocate(bt.file)
		if err != nil {
			return 0, err
		}
		if err := disk.Write(bt.file, id, &pg); err != nil {
			return 0, err
		}
		return int32(id), nil
	}
	lv := 1
	for len(level) > 1 || lv == 1 {
		var next []entry
		for lo := 0; lo < len(level); lo += btreeFanout {
			hi := lo + btreeFanout
			if hi > len(level) {
				hi = len(level)
			}
			id, err := writeNode(lv, level[lo:hi])
			if err != nil {
				return nil, err
			}
			next = append(next, entry{key: level[lo].key, child: id})
		}
		level = next
		bt.levels = lv
		if len(level) == 1 {
			bt.root = pagedisk.PageID(level[0].child)
			break
		}
		lv++
	}
	return bt, nil
}

// Levels reports the number of interior levels.
func (bt *BTree) Levels() int { return bt.levels }

// File returns the index's disk file.
func (bt *BTree) File() pagedisk.FileID { return bt.file }

// lookupLeaf descends from the root to the leaf (relation) page that may
// contain key, charging every interior page through the pool.
func (bt *BTree) lookupLeaf(pool *buffer.Pool, key int32) (int, error) {
	if bt.root == pagedisk.InvalidPage {
		return 0, nil
	}
	page := bt.root
	for {
		h, err := pool.Get(bt.file, page)
		if err != nil {
			return 0, err
		}
		pg := h.Data()
		count := int(binary.LittleEndian.Uint32(pg[0:]))
		level := int(binary.LittleEndian.Uint32(pg[4:]))
		if count == 0 {
			pool.Unpin(&h, false)
			return 0, fmt.Errorf("relation: empty btree node %d", page)
		}
		// Rightmost entry whose separator is strictly below the key: a
		// key's duplicates can start on the page before the first
		// separator equal to it, so the descent biases left and the leaf
		// scan advances forward past any too-early page.
		lo, hi := 0, count-1
		pick := 0
		for lo <= hi {
			mid := (lo + hi) / 2
			k := int32(binary.LittleEndian.Uint32(pg[8+mid*8:]))
			if k < key {
				pick = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		child := int32(binary.LittleEndian.Uint32(pg[12+pick*8:]))
		pool.Unpin(&h, false)
		if level == 1 {
			return int(child), nil
		}
		page = pagedisk.PageID(child)
	}
}

// ProbeIndexed is Probe with the clustered index's interior pages charged:
// the descent reads index pages through the pool before the leaf scan.
func (r *Relation) ProbeIndexed(pool *buffer.Pool, bt *BTree, key int32, fn func(val int32) bool) (int, error) {
	start, err := bt.lookupLeaf(pool, key)
	if err != nil {
		return 0, err
	}
	return r.probeFrom(pool, start, key, nil, func(val, _ int32) bool { return fn(val) })
}
