package pagedisk

import (
	"runtime"
	"sync"
	"testing"
)

// fill allocates n pages in f and writes b into every byte of each.
func fill(t *testing.T, d *Disk, f FileID, n int, b byte) {
	t.Helper()
	var pg Page
	for i := range pg {
		pg[i] = b
	}
	for i := 0; i < n; i++ {
		p, err := d.Allocate(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(f, p, &pg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecycledPagesAreZeroed pins the Store.Allocate contract across
// recycling: pages released by Truncate come back from Allocate — in the
// same file or another — reading zero in every byte.
func TestRecycledPagesAreZeroed(t *testing.T) {
	const n = 64
	d := New()
	f1, f2 := d.CreateFile("one"), d.CreateFile("two")
	fill(t, d, f1, n, 0xFF)
	old := make(map[*Page]bool, n)
	for _, pg := range d.catalog()[f1].pages {
		old[pg] = true
	}
	d.Truncate(f1)
	if got := d.NumPages(f1); got != 0 {
		t.Fatalf("NumPages after truncate = %d, want 0", got)
	}
	var buf Page
	if err := d.Read(f1, 0, &buf); err == nil {
		t.Fatal("read of a truncated file's page 0 succeeded, want out-of-range error")
	}
	if err := d.Write(f1, 0, &buf); err == nil {
		t.Fatal("write to a truncated file's page 0 succeeded, want out-of-range error")
	}

	reused := 0
	for _, f := range []FileID{f2, f1} {
		for i := 0; i < n/2; i++ {
			p, err := d.Allocate(f)
			if err != nil {
				t.Fatal(err)
			}
			if p != PageID(i) {
				t.Fatalf("file %d: allocated page %d, want %d", f, p, i)
			}
			if old[d.catalog()[f].pages[p]] {
				reused++
			}
			for j := range buf {
				buf[j] = 0xAA
			}
			if err := d.Read(f, p, &buf); err != nil {
				t.Fatal(err)
			}
			if buf != (Page{}) {
				t.Fatalf("file %d page %d is not zeroed after recycling", f, p)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no truncated page was handed out again: Truncate is not feeding Allocate")
	}
	if got := d.Stats().Allocs; got != 2*n {
		t.Fatalf("Allocs = %d, want %d: a recycled page must still count as an allocation", got, 2*n)
	}
}

// TestViewStableAcrossRecycling pins that recycling never touches sealed
// storage: a View pointer taken before temp files are truncated and
// reallocated still reads its original bytes, and is never handed out as
// a temp page.
func TestViewStableAcrossRecycling(t *testing.T) {
	d, base := sealedFixture(t)
	views := make([]*Page, 4)
	for i := range views {
		v, err := d.View(base, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	tmp := d.CreateFile("tmp")
	for round := 0; round < 8; round++ {
		fill(t, d, tmp, 16, 0xFF)
		for _, pg := range d.catalog()[tmp].pages {
			for _, v := range views {
				if pg == v {
					t.Fatal("a sealed file's page was handed out as a temp page")
				}
			}
		}
		d.Truncate(tmp)
	}
	for i, v := range views {
		if v[0] != byte(i+1) || v[1] != 0 {
			t.Fatalf("view of sealed page %d changed under temp-file churn: % x", i, v[:2])
		}
	}
}

// TestConcurrentRecyclingKeepsFilesPrivate runs many owners through the
// temp-file life cycle at once over one disk (and so one page pool): no
// owner may ever read back another's bytes, or non-zero bytes from a fresh
// page. Run under -race.
func TestConcurrentRecyclingKeepsFilesPrivate(t *testing.T) {
	const workers, rounds, pages = 8, 50, 8
	d := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine, buf Page
			for i := range mine {
				mine[i] = byte(w + 1)
			}
			for r := 0; r < rounds; r++ {
				f := d.CreateFile("tmp")
				for i := 0; i < pages; i++ {
					p, err := d.Allocate(f)
					if err != nil {
						t.Error(err)
						return
					}
					if err := d.Read(f, p, &buf); err != nil {
						t.Error(err)
						return
					}
					if buf != (Page{}) {
						t.Errorf("worker %d: fresh page %d is not zeroed", w, p)
						return
					}
					if err := d.Write(f, p, &mine); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < pages; i++ {
					if err := d.Read(f, PageID(i), &buf); err != nil {
						t.Error(err)
						return
					}
					if buf != mine {
						t.Errorf("worker %d read back another owner's bytes from page %d", w, i)
						return
					}
				}
				d.Truncate(f)
			}
		}(w)
	}
	wg.Wait()
}

// TestTruncateReturnsMemory pins that released pages are not retained: the
// pool is emptied by the collector, so after a large temp file is dropped
// an idle disk's heap is back where it started.
func TestTruncateReturnsMemory(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	d := New()
	f := d.CreateFile("big")
	before := heap()
	for i := 0; i < 10000; i++ { // 10 000 pages ≈ 20 MB
		if _, err := d.Allocate(f); err != nil {
			t.Fatal(err)
		}
	}
	d.Truncate(f)
	after := heap()
	runtime.KeepAlive(d)
	if after > before+1<<20 {
		t.Fatalf("heap is %d KB above the empty disk after truncate + 2 GCs, want within 1 MB",
			(after-before)>>10)
	}
}
