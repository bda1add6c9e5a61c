package slist

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

// FuzzStoreOps drives the store with an operation tape decoded from fuzz
// input: appends, clears and reads over a handful of lists with a tiny
// pool, checking contents against an in-memory reference after every read.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 1, 1, 1})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, tape []byte) {
		const nLists = 8
		d := pagedisk.New()
		pol, _ := buffer.NewPolicy("lru", 4)
		pool := buffer.New(d, 4, pol)
		lp, _ := NewListPolicy("smallest")
		s := NewStore(pool, "fuzz", nLists, lp)
		ref := make([][]int32, nLists)

		for i := 0; i+1 < len(tape); i += 2 {
			op := tape[i] % 3
			id := int32(tape[i+1] % nLists)
			switch op {
			case 0: // append a value derived from the tape position
				v := int32(binary.LittleEndian.Uint16(append([]byte{tape[i+1]}, byte(i))))
				if err := s.Append(id, v); err != nil {
					t.Fatalf("append: %v", err)
				}
				ref[id] = append(ref[id], v)
			case 1: // clear
				if err := s.Clear(id); err != nil {
					t.Fatalf("clear: %v", err)
				}
				ref[id] = nil
			case 2: // verify
				got, err := s.ReadAll(id)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if len(got) != len(ref[id]) {
					t.Fatalf("list %d has %d entries, want %d", id, len(got), len(ref[id]))
				}
				for j := range got {
					if got[j] != ref[id][j] {
						t.Fatalf("list %d entry %d = %d, want %d", id, j, got[j], ref[id][j])
					}
				}
			}
		}
		// Final full verification plus pin accounting.
		for id := int32(0); id < nLists; id++ {
			got, err := s.ReadAll(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref[id]) {
				t.Fatalf("final list %d: %d entries, want %d", id, len(got), len(ref[id]))
			}
		}
		if pool.PinnedFrames() != 0 {
			t.Fatal("pins leaked")
		}
	})
}

// corruptStore builds a one-list store over two pages whose images come
// from raw, with the list's head at block blk of page 0.
func corruptStore(t testing.TB, raw []byte, blk int16) *Store {
	d := pagedisk.New()
	fid := d.CreateFile("fuzz")
	for i := 0; i < 2; i++ {
		p, err := d.Allocate(fid)
		if err != nil {
			t.Fatal(err)
		}
		var img pagedisk.Page
		if off := i * pagedisk.PageSize; off < len(raw) {
			copy(img[:], raw[off:])
		}
		if err := d.Write(fid, p, &img); err != nil {
			t.Fatal(err)
		}
	}
	pol, _ := buffer.NewPolicy("lru", 4)
	return &Store{
		pool:     buffer.New(d, 4, pol),
		file:     fid,
		head:     []Ref{{Page: 0, Blk: blk}},
		tail:     []Ref{nilRef},
		length:   []int32{0},
		lastUse:  []int64{0},
		fillPage: pagedisk.InvalidPage,
	}
}

// walkCorrupt reads list 0 to the end, by entry or by block, and returns
// what it produced and the iterator's error.
func walkCorrupt(s *Store, byBlock bool) ([]int32, error) {
	var out []int32
	it := s.NewIterator(0)
	if byBlock {
		for blk, ok := it.NextBlock(); ok; blk, ok = it.NextBlock() {
			out = append(out, blk...)
		}
	} else {
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			out = append(out, v)
		}
	}
	it.Close()
	return out, it.Err()
}

// corruptClass names which of the iterator's three corruption checks an
// error comes from ("" for no error).
func corruptClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range []string{"outside page layout", "entries used", "next-pointer cycle"} {
		if strings.Contains(err.Error(), c) {
			return c
		}
	}
	return "other: " + err.Error()
}

// FuzzIteratorCorruptChain points a list head at an arbitrary page image
// and block index, then walks it by entry and by block. The iterator's
// contract under corruption is: terminate, report an error or a bounded
// result, never panic, never leak a pin — and both walks read the same
// entries and fail the same check. Seeds cover a well-formed block, a
// self-referential cycle and an oversized entry count.
func FuzzIteratorCorruptChain(f *testing.F) {
	var pg pagedisk.Page
	claimBlock(&pg, 0, 1)
	setBlockUsed(&pg, 0, 3)
	for i := 0; i < 3; i++ {
		setBlockEntry(&pg, 0, i, int32(i+10))
	}
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	setBlockNext(&pg, 0, Ref{Page: 0, Blk: 0}) // cycle
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	setBlockUsed(&pg, 0, 200) // used beyond block capacity
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	f.Add([]byte{}, int16(-7))

	f.Fuzz(func(t *testing.T, raw []byte, blk int16) {
		var vals [2][]int32
		var errs [2]error
		for i, byBlock := range []bool{false, true} {
			s := corruptStore(t, raw, blk)
			vals[i], errs[i] = walkCorrupt(s, byBlock) // must not panic or hang
			// The cycle guard stops a walk after (2+1)·BlocksPerPage+1 blocks.
			if max := (3*BlocksPerPage + 1) * BlockEntries; len(vals[i]) > max {
				t.Fatalf("byBlock=%v: iterator produced %d entries from %d blocks of storage",
					byBlock, len(vals[i]), 2*BlocksPerPage)
			}
			if s.pool.PinnedFrames() != 0 {
				t.Fatalf("byBlock=%v: pins leaked on corrupt chain", byBlock)
			}
		}
		if !slices.Equal(vals[0], vals[1]) {
			t.Fatalf("Next read %d entries, NextBlock %d", len(vals[0]), len(vals[1]))
		}
		if a, b := corruptClass(errs[0]), corruptClass(errs[1]); a != b {
			t.Fatalf("Next failed with %q (%v), NextBlock with %q (%v)", a, errs[0], b, errs[1])
		}
	})
}

// TestIteratorCorruptChainCases walks one chain per corruption check, by
// entry and by block. Each fails with its own error; the cycle fires after
// exactly (NumPages+1)·BlocksPerPage+1 = 91 blocks, having served each of
// the 91 visits' 3 entries — the bound the walk has always used, now read
// from the iterator's cache.
func TestIteratorCorruptChainCases(t *testing.T) {
	block := func(used int, next Ref) []byte {
		var pg pagedisk.Page
		claimBlock(&pg, 0, 0)
		for i := 0; i < 3; i++ {
			setBlockEntry(&pg, 0, i, int32(i+10))
		}
		setBlockUsed(&pg, 0, used)
		setBlockNext(&pg, 0, next)
		return pg[:]
	}
	cases := []struct {
		name    string
		raw     []byte
		blk     int16
		class   string
		entries int
		msg     string
	}{
		{"layout", block(3, Ref{Page: 0, Blk: BlocksPerPage}), 0, "outside page layout", 3,
			"slist: corrupt chain: block index 30 outside page layout"},
		{"used", block(BlockEntries+1, nilRef), 0, "entries used", 0,
			"slist: corrupt block 0 on page 0: 16 entries used, capacity 15"},
		{"cycle", block(3, Ref{Page: 0, Blk: 0}), 0, "next-pointer cycle", 3 * 91,
			"slist: corrupt chain: next-pointer cycle after 91 blocks"},
	}
	for _, c := range cases {
		for _, byBlock := range []bool{false, true} {
			s := corruptStore(t, c.raw, c.blk)
			vals, err := walkCorrupt(s, byBlock)
			if got := corruptClass(err); got != c.class || err.Error() != c.msg {
				t.Errorf("%s byBlock=%v: err = %v, want %q", c.name, byBlock, err, c.msg)
			}
			if len(vals) != c.entries {
				t.Errorf("%s byBlock=%v: %d entries before the error, want %d", c.name, byBlock, len(vals), c.entries)
			}
			if s.pool.PinnedFrames() != 0 {
				t.Errorf("%s byBlock=%v: pins leaked", c.name, byBlock)
			}
		}
	}
}
