package relation

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

// Weighted storage for the generalized transitive closure extension: arc
// weights live in a separate column file aligned with the relation's tuple
// order — one 4-byte weight per tuple, 512 per page. A weighted probe
// reads the tuple page and the corresponding weight page(s), both charged
// through the buffer pool, exactly like a column store would.

// WeightsPerPage is the weight capacity of one column page.
const WeightsPerPage = pagedisk.PageSize / 4

// WeightColumn is the arc-weight column aligned with a Relation.
type WeightColumn struct {
	file pagedisk.FileID
}

// BuildWeighted builds a relation together with its weight column. The
// tuples are sorted and deduplicated as in Build; weights follow their
// tuples, and a duplicated arc keeps its smallest weight (the natural
// choice for shortest-path semantics; documented behaviour).
func BuildWeighted(disk pagedisk.Store, name string, tuples []Tuple, weights []int32) (*Relation, *WeightColumn, error) {
	if len(tuples) != len(weights) {
		return nil, nil, fmt.Errorf("relation: %d tuples but %d weights", len(tuples), len(weights))
	}
	type wt struct {
		t Tuple
		w int32
	}
	ws := make([]wt, len(tuples))
	for i := range tuples {
		ws[i] = wt{t: tuples[i], w: weights[i]}
	}
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.t.Key != b.t.Key {
			return a.t.Key < b.t.Key
		}
		if a.t.Val != b.t.Val {
			return a.t.Val < b.t.Val
		}
		return a.w < b.w // duplicates: smallest weight first, kept by dedup
	})
	dedup := ws[:0]
	for i, x := range ws {
		if i == 0 || x.t != ws[i-1].t {
			dedup = append(dedup, x)
		}
	}
	ws = dedup

	ts := make([]Tuple, len(ws))
	for i, x := range ws {
		ts[i] = x.t
	}
	// Build writes the (already sorted, deduplicated) tuples; its own sort
	// is a no-op re-sort of identical data, keeping one code path.
	r := Build(disk, name, ts)

	col := &WeightColumn{file: disk.CreateFile(name + "-weights")}
	err := writePacked(disk, col.file, len(ws), WeightsPerPage, func(pg *pagedisk.Page, slot, i int) {
		binary.LittleEndian.PutUint32(pg[slot*4:], uint32(ws[i].w))
	})
	if err != nil {
		return nil, nil, err
	}
	return r, col, nil
}

// File returns the column's disk file.
func (c *WeightColumn) File() pagedisk.FileID { return c.file }

// RestoreWeightColumn reattaches a weight column to its disk file (e.g.
// after pagedisk.Load).
func RestoreWeightColumn(f pagedisk.FileID) *WeightColumn { return &WeightColumn{file: f} }

// weightAt reads the weight of the tuple with the given global index.
func (c *WeightColumn) weightAt(pool *buffer.Pool, idx int32) (int32, error) {
	page := pagedisk.PageID(idx / WeightsPerPage)
	off := int(idx%WeightsPerPage) * 4
	h, err := pool.Get(c.file, page)
	if err != nil {
		return 0, err
	}
	w := int32(binary.LittleEndian.Uint32(h.Data()[off:]))
	pool.Unpin(&h, false)
	return w, nil
}

// ProbeWeighted reads every (Val, weight) pair for the given key: the
// clustered tuple lookup plus the aligned column reads.
func (r *Relation) ProbeWeighted(pool *buffer.Pool, key int32, col *WeightColumn, fn func(val, weight int32) bool) (int, error) {
	return r.probeFrom(pool, r.firstPageFor(key), key, col, fn)
}
