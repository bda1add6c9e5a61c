package slist

import (
	"testing"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

func newBenchStore(b *testing.B, frames, numLists int) *Store {
	b.Helper()
	d := pagedisk.New()
	pol, err := buffer.NewPolicy("lru", frames)
	if err != nil {
		b.Fatal(err)
	}
	pool := buffer.New(d, frames, pol)
	lp, err := NewListPolicy("smallest")
	if err != nil {
		b.Fatal(err)
	}
	return NewStore(pool, "lists", numLists, lp)
}

// BenchmarkIterate walks a populated list with a reused value iterator —
// the successor-fetch loop every algorithm's computation phase runs. Must
// stay at zero allocs/op.
func BenchmarkIterate(b *testing.B) {
	s := newBenchStore(b, 16, 8)
	const entries = 2000
	vals := make([]int32, entries)
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var it Iterator
	for i := 0; i < b.N; i++ {
		it.Reset(s, 0)
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		it.Close()
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if n != entries {
			b.Fatalf("iterated %d entries, want %d", n, entries)
		}
	}
}

// BenchmarkIterateBlock is BenchmarkIterate a block at a time — the loop
// the engine's list unions run. Must stay at zero allocs/op
// (TestWarmBlockWalkAllocatesNothing enforces it).
func BenchmarkIterateBlock(b *testing.B) {
	s := newBenchStore(b, 16, 8)
	const entries = 2000
	vals := make([]int32, entries)
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var it Iterator
	for i := 0; i < b.N; i++ {
		it.Reset(s, 0)
		n := 0
		for {
			blk, ok := it.NextBlock()
			if !ok {
				break
			}
			n += len(blk)
		}
		it.Close()
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if n != entries {
			b.Fatalf("iterated %d entries, want %d", n, entries)
		}
	}
}

// BenchmarkAppendWithSplits grows interleaved lists so the page-split
// machinery (ownersOnPage, relocate) runs constantly; scratch reuse keeps
// steady-state allocations near zero.
func BenchmarkAppendWithSplits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchStore(b, 64, 64)
		for round := 0; round < 40; round++ {
			for id := int32(0); id < 64; id++ {
				if err := s.Append(id, int32(round)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
