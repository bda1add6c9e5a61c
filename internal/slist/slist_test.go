package slist

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

func newStore(t *testing.T, frames int, listPolicy string, numLists int) (*Store, *pagedisk.Disk) {
	t.Helper()
	d := pagedisk.New()
	pol, err := buffer.NewPolicy("lru", frames)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, frames, pol)
	lp, err := NewListPolicy(listPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(pool, "lists", numLists, lp), d
}

func wantList(t *testing.T, s *Store, id int32, want []int32) {
	t.Helper()
	got, err := s.ReadAll(id)
	if err != nil {
		t.Fatalf("ReadAll(%d): %v", id, err)
	}
	if len(got) != len(want) {
		t.Fatalf("list %d = %v (len %d), want len %d", id, got, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list %d[%d] = %d, want %d", id, i, got[i], want[i])
		}
	}
	if s.Len(id) != len(want) {
		t.Fatalf("Len(%d) = %d, want %d", id, s.Len(id), len(want))
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 4)
	if err := s.AppendAll(0, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(0, []int32{4}); err != nil {
		t.Fatal(err)
	}
	wantList(t, s, 0, []int32{1, 2, 3, 4})
	wantList(t, s, 1, []int32{42})
	wantList(t, s, 2, nil)
}

func TestPageCapacityMatchesPaper(t *testing.T) {
	// 450 successors per page: 30 blocks of 15 (Section 5.1).
	if BlocksPerPage*BlockEntries != 450 {
		t.Fatalf("page capacity = %d, paper says 450", BlocksPerPage*BlockEntries)
	}
	if headerSize+BlocksPerPage*blockSize != pagedisk.PageSize {
		t.Fatalf("layout does not fill the page: %d != %d",
			headerSize+BlocksPerPage*blockSize, pagedisk.PageSize)
	}
	s, d := newStore(t, 8, "smallest", 2)
	vals := make([]int32, 450)
	for i := range vals {
		vals[i] = int32(i + 1)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	if got := d.NumPages(s.File()); got != 1 {
		t.Fatalf("450 entries occupy %d pages, want 1", got)
	}
	if err := s.Append(0, 451); err != nil {
		t.Fatal(err)
	}
	if got := d.NumPages(s.File()); got != 2 {
		t.Fatalf("451 entries occupy %d pages, want 2", got)
	}
	wantList(t, s, 0, append(vals, 451))
}

func TestInterListClustering(t *testing.T) {
	// 30 single-entry lists fit exactly on one page.
	s, d := newStore(t, 8, "smallest", 40)
	for id := int32(0); id < 30; id++ {
		if err := s.Append(id, id+1); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumPages(s.File()); got != 1 {
		t.Fatalf("30 small lists occupy %d pages, want 1", got)
	}
	if err := s.Append(30, 31); err != nil {
		t.Fatal(err)
	}
	if got := d.NumPages(s.File()); got != 2 {
		t.Fatalf("31st list should open page 2, got %d pages", got)
	}
	for id := int32(0); id <= 30; id++ {
		wantList(t, s, id, []int32{id + 1})
	}
}

func TestClusteringDisabled(t *testing.T) {
	s, d := newStore(t, 8, "smallest", 8)
	s.SetClustering(false)
	for id := int32(0); id < 5; id++ {
		if err := s.Append(id, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumPages(s.File()); got != 5 {
		t.Fatalf("unclustered: %d pages, want 5", got)
	}
}

func TestSplitRelocatesVictim(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 4)
	// Fill one page: list 0 gets 29 blocks (435 entries), list 1 one block.
	big := make([]int32, 29*BlockEntries)
	for i := range big {
		big[i] = int32(i + 1)
	}
	if err := s.AppendAll(0, big); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(1, []int32{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	// Growing list 0 must split the page and relocate list 1.
	if err := s.Append(0, 999); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Splits != 1 || st.ListsMoved != 1 {
		t.Fatalf("stats = %+v, want one split/move", st)
	}
	if st.EntriesMoved != 3 {
		t.Fatalf("EntriesMoved = %d, want 3", st.EntriesMoved)
	}
	wantList(t, s, 0, append(big, 999))
	wantList(t, s, 1, []int32{7, 8, 9})
}

func TestOverflowWithoutVictims(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 2)
	vals := make([]int32, 1200) // spans 3 pages, sole owner
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Splits != 0 {
		t.Fatalf("sole-owner growth caused %d splits", st.Splits)
	}
	if st.Overflows < 2 {
		t.Fatalf("Overflows = %d, want >= 2", st.Overflows)
	}
	wantList(t, s, 0, vals)
}

func TestSmallestPolicyPicksShortest(t *testing.T) {
	p, _ := NewListPolicy("smallest")
	lens := map[int32]int32{3: 10, 5: 2, 9: 7}
	v := p.Victim([]int32{3, 5, 9}, func(id int32) int32 { return lens[id] }, nil)
	if v != 5 {
		t.Fatalf("smallest picked %d, want 5", v)
	}
}

func TestLargestPolicyPicksLongest(t *testing.T) {
	p, _ := NewListPolicy("largest")
	lens := map[int32]int32{3: 10, 5: 2, 9: 7}
	v := p.Victim([]int32{3, 5, 9}, func(id int32) int32 { return lens[id] }, nil)
	if v != 3 {
		t.Fatalf("largest picked %d, want 3", v)
	}
}

func TestLRUPolicyPicksStalest(t *testing.T) {
	p, _ := NewListPolicy("lru")
	use := map[int32]int64{3: 100, 5: 50, 9: 70}
	v := p.Victim([]int32{3, 5, 9}, nil, func(id int32) int64 { return use[id] })
	if v != 5 {
		t.Fatalf("lru picked %d, want 5", v)
	}
}

func TestRandomPolicyPicksCandidate(t *testing.T) {
	p, _ := NewListPolicy("random")
	for i := 0; i < 10; i++ {
		v := p.Victim([]int32{3, 5, 9}, nil, nil)
		if v != 3 && v != 5 && v != 9 {
			t.Fatalf("random picked non-candidate %d", v)
		}
	}
}

func TestUnknownListPolicy(t *testing.T) {
	if _, err := NewListPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAllListPoliciesPreserveContents(t *testing.T) {
	for _, name := range ListPolicyNames() {
		t.Run(name, func(t *testing.T) {
			s, _ := newStore(t, 6, name, 16)
			want := map[int32][]int32{}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 4000; i++ {
				id := int32(rng.Intn(16))
				v := int32(rng.Intn(10000) + 1)
				if err := s.Append(id, v); err != nil {
					t.Fatal(err)
				}
				want[id] = append(want[id], v)
			}
			for id := int32(0); id < 16; id++ {
				wantList(t, s, id, want[id])
			}
		})
	}
}

func TestIteratorReleasesPins(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 2)
	if err := s.AppendAll(0, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		step func(*Iterator) bool
	}{
		{"Next", func(it *Iterator) bool { _, ok := it.Next(); return ok }},
		{"NextBlock", func(it *Iterator) bool { _, ok := it.NextBlock(); return ok }},
	} {
		name, step := c.name, c.step
		it := s.NewIterator(0)
		step(it)
		if got := s.Pool().PinnedFrames(); got != 1 {
			t.Fatalf("%s: mid-iteration pinned frames = %d, want 1", name, got)
		}
		it.Close()
		if got := s.Pool().PinnedFrames(); got != 0 {
			t.Fatalf("%s: post-close pinned frames = %d, want 0", name, got)
		}
		// Exhausting the iterator also releases the pin.
		it2 := s.NewIterator(0)
		for step(it2) {
		}
		if got := s.Pool().PinnedFrames(); got != 0 {
			t.Fatalf("%s: exhausted iterator pinned frames = %d, want 0", name, got)
		}
		it2.Close()
	}
}

func TestIteratorEmptyList(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 1)
	it := s.NewIterator(0)
	if _, ok := it.Next(); ok {
		t.Fatal("Next on empty list returned a value")
	}
	it.Close()
	if it.Err() != nil {
		t.Fatalf("Err = %v", it.Err())
	}
	it.Reset(s, 0)
	if blk, ok := it.NextBlock(); ok || len(blk) != 0 {
		t.Fatalf("NextBlock on empty list returned %v, %v", blk, ok)
	}
	it.Close()
	if it.Err() != nil {
		t.Fatalf("NextBlock Err = %v", it.Err())
	}
}

// TestIteratorMixesNextAndNextBlock: NextBlock after a partial Next
// returns the rest of the block Next was serving, so the two may be mixed
// without losing or repeating an entry.
func TestIteratorMixesNextAndNextBlock(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 1)
	vals := make([]int32, 2*BlockEntries+4)
	for i := range vals {
		vals[i] = int32(i + 1)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	var it Iterator
	it.Reset(s, 0)
	var got []int32
	for i := 0; ; i++ {
		if i%3 == 0 {
			blk, ok := it.NextBlock()
			if !ok {
				break
			}
			got = append(got, blk...)
		} else {
			v, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, v)
		}
	}
	it.Close()
	if it.Err() != nil || !slices.Equal(got, vals) {
		t.Fatalf("mixed walk = %v (err %v), want %v", got, it.Err(), vals)
	}
}

// TestWarmBlockWalkAllocatesNothing pins the hot loop's allocation budget:
// a warm Reset plus NextBlock walk of a multi-page list allocates 0.
func TestWarmBlockWalkAllocatesNothing(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 1)
	vals := make([]int32, 1000)
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	var it Iterator
	walk := func() {
		it.Reset(s, 0)
		for _, ok := it.NextBlock(); ok; _, ok = it.NextBlock() {
		}
		it.Close()
	}
	walk()
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("warm Reset+NextBlock walk allocates %.1f times, want 0", allocs)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestClear(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 4)
	if err := s.AppendAll(0, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(0); err != nil {
		t.Fatal(err)
	}
	wantList(t, s, 0, nil)
	// Freed blocks are reusable: a new list lands on the same page.
	if err := s.AppendAll(1, []int32{9}); err != nil {
		t.Fatal(err)
	}
	wantList(t, s, 1, []int32{9})
}

func TestPinList(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 2)
	vals := make([]int32, 1000) // 3 pages
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	handles, err := s.PinList(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 3 {
		t.Fatalf("PinList pinned %d pages, want 3", len(handles))
	}
	if got := s.Pool().PinnedFrames(); got != 3 {
		t.Fatalf("pinned frames = %d, want 3", got)
	}
	s.UnpinAll(handles)
	if got := s.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("after UnpinAll pinned frames = %d", got)
	}
}

func TestPinListNoFrames(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 2)
	vals := make([]int32, 450*5)
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	_, err := s.PinList(0)
	if !errors.Is(err, buffer.ErrNoFrames) {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
	if got := s.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("failed PinList leaked %d pins", got)
	}
}

func TestIOErrorPropagatesThroughAppend(t *testing.T) {
	s, d := newStore(t, 4, "smallest", 2)
	big := make([]int32, 2000)
	if err := s.AppendAll(0, big); err != nil {
		t.Fatal(err)
	}
	d.FailAfter(0)
	err := s.AppendAll(1, big)
	if !errors.Is(err, pagedisk.ErrIOInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	d.FailAfter(-1)
}

func TestTinyPoolPanics(t *testing.T) {
	d := pagedisk.New()
	pol, _ := buffer.NewPolicy("lru", 2)
	pool := buffer.New(d, 2, pol)
	lp, _ := NewListPolicy("smallest")
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore accepted a 2-frame pool")
		}
	}()
	NewStore(pool, "x", 1, lp)
}

// seededStore builds a store from random interleaved appends with a tiny
// buffer pool (forcing evictions, page splits, relocations and overflows),
// returning it with the in-memory reference of every list. The same seed
// builds the same store, page for page.
func seededStore(seed int64) (*Store, [][]int32, error) {
	rng := rand.New(rand.NewSource(seed))
	const nLists = 12
	d := pagedisk.New()
	pol, _ := buffer.NewPolicy("lru", 4)
	pool := buffer.New(d, 4, pol)
	lpName := ListPolicyNames()[rng.Intn(len(ListPolicyNames()))]
	lp, _ := NewListPolicy(lpName)
	s := NewStore(pool, "p", nLists, lp)
	ref := make([][]int32, nLists)
	ops := rng.Intn(3000) + 100
	for i := 0; i < ops; i++ {
		id := int32(rng.Intn(nLists))
		run := rng.Intn(8) + 1
		vals := make([]int32, run)
		for j := range vals {
			vals[j] = int32(rng.Intn(1 << 20))
		}
		if err := s.AppendAll(id, vals); err != nil {
			return nil, nil, err
		}
		ref[id] = append(ref[id], vals...)
	}
	return s, ref, nil
}

// TestStoreMatchesReferenceProperty checks every list of a seeded store
// against its in-memory reference, read three ways: the Next sequence, the
// concatenated NextBlock results and ReadAll. Two stores built from the same
// seed are walked list by list, one with Next and one with NextBlock; the
// pools' hit, miss, evict and read counts must move identically, so reading
// a block at a time changes no page traffic.
func TestStoreMatchesReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		byEntry, ref, err := seededStore(seed)
		if err != nil {
			t.Log(err)
			return false
		}
		byBlock, _, err := seededStore(seed)
		if err != nil {
			t.Log(err)
			return false
		}
		var it, bit Iterator
		for id := range ref {
			id := int32(id)
			before, bbefore := byEntry.Pool().Stats(), byBlock.Pool().Stats()
			var got, gotBlocks []int32
			it.Reset(byEntry, id)
			for v, ok := it.Next(); ok; v, ok = it.Next() {
				got = append(got, v)
			}
			it.Close()
			bit.Reset(byBlock, id)
			for blk, ok := bit.NextBlock(); ok; blk, ok = bit.NextBlock() {
				if len(blk) == 0 || len(blk) > BlockEntries {
					t.Logf("list %d: NextBlock returned %d entries", id, len(blk))
					return false
				}
				gotBlocks = append(gotBlocks, blk...)
			}
			bit.Close()
			if it.Err() != nil || bit.Err() != nil {
				t.Logf("list %d: Next err %v, NextBlock err %v", id, it.Err(), bit.Err())
				return false
			}
			delta := subStats(byEntry.Pool().Stats(), before)
			if bdelta := subStats(byBlock.Pool().Stats(), bbefore); delta != bdelta {
				t.Logf("list %d: Next walk moved the pool by %+v, NextBlock walk by %+v", id, delta, bdelta)
				return false
			}
			all, err := byEntry.ReadAll(id)
			if err != nil {
				t.Log(err)
				return false
			}
			if _, err := byBlock.ReadAll(id); err != nil { // keeps the two pools in step
				t.Log(err)
				return false
			}
			if !slices.Equal(got, ref[id]) || !slices.Equal(gotBlocks, ref[id]) || !slices.Equal(all, ref[id]) {
				t.Logf("list %d: Next %d entries, NextBlock %d, ReadAll %d, reference %d",
					id, len(got), len(gotBlocks), len(all), len(ref[id]))
				return false
			}
		}
		return byEntry.Pool().PinnedFrames() == 0 && byBlock.Pool().PinnedFrames() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func subStats(a, b buffer.Stats) buffer.Stats {
	return buffer.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Evicts: a.Evicts - b.Evicts, Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes}
}
