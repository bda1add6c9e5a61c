package relation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

func pool(t *testing.T, d *pagedisk.Disk, size int) *buffer.Pool {
	t.Helper()
	pol, err := buffer.NewPolicy("lru", size)
	if err != nil {
		t.Fatal(err)
	}
	return buffer.New(d, size, pol)
}

func TestBuildSortsAndDedups(t *testing.T) {
	d := pagedisk.New()
	r := Build(d, "rel", []Tuple{{3, 4}, {1, 2}, {3, 4}, {1, 5}, {1, 2}})
	if r.NumTuples() != 3 {
		t.Fatalf("NumTuples = %d, want 3", r.NumTuples())
	}
	var got []Tuple
	p := pool(t, d, 4)
	if err := r.Scan(p, func(tu Tuple) bool { got = append(got, tu); return true }); err != nil {
		t.Fatal(err)
	}
	want := []Tuple{{1, 2}, {1, 5}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("scan returned %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
	if r.MaxNode() != 5 {
		t.Fatalf("MaxNode = %d, want 5", r.MaxNode())
	}
}

func TestPageCapacityMatchesPaper(t *testing.T) {
	if TuplesPerPage != 256 {
		t.Fatalf("TuplesPerPage = %d, paper says 256", TuplesPerPage)
	}
	d := pagedisk.New()
	var ts []Tuple
	for i := int32(0); i < 256*3+10; i++ {
		ts = append(ts, Tuple{Key: i, Val: i + 1})
	}
	r := Build(d, "rel", ts)
	if r.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4 (3 full + 1 partial)", r.NumPages())
	}
}

func TestScanCountsSequentialReads(t *testing.T) {
	d := pagedisk.New()
	var ts []Tuple
	for i := int32(0); i < 1000; i++ {
		ts = append(ts, Tuple{Key: i, Val: i + 1})
	}
	r := Build(d, "rel", ts)
	d.ResetStats()
	p := pool(t, d, 2)
	n := 0
	if err := r.Scan(p, func(Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scanned %d tuples", n)
	}
	if got, want := d.Stats().Reads, int64(r.NumPages()); got != want {
		t.Fatalf("reads = %d, want %d", got, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	d := pagedisk.New()
	var ts []Tuple
	for i := int32(0); i < 1000; i++ {
		ts = append(ts, Tuple{Key: i, Val: i + 1})
	}
	r := Build(d, "rel", ts)
	p := pool(t, d, 2)
	n := 0
	if err := r.Scan(p, func(Tuple) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early stop scanned %d tuples", n)
	}
}

func TestProbe(t *testing.T) {
	d := pagedisk.New()
	rng := rand.New(rand.NewSource(7))
	want := map[int32][]int32{}
	var ts []Tuple
	for i := 0; i < 5000; i++ {
		k := int32(rng.Intn(300) + 1)
		v := int32(rng.Intn(1000) + 1)
		ts = append(ts, Tuple{k, v})
	}
	// Build the expected probe results from the dedup'd sorted view.
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		return ts[i].Val < ts[j].Val
	})
	for i, tu := range ts {
		if i > 0 && tu == ts[i-1] {
			continue
		}
		want[tu.Key] = append(want[tu.Key], tu.Val)
	}
	r := Build(d, "rel", ts)
	p := pool(t, d, 4)
	for k := int32(0); k <= 301; k++ {
		var got []int32
		if _, err := r.Probe(p, k, func(v int32) bool { got = append(got, v); return true }); err != nil {
			t.Fatal(err)
		}
		w := want[k]
		if len(got) != len(w) {
			t.Fatalf("probe(%d) = %v, want %v", k, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("probe(%d)[%d] = %d, want %d", k, i, got[i], w[i])
			}
		}
	}
}

func TestProbeSpanningPages(t *testing.T) {
	d := pagedisk.New()
	var ts []Tuple
	// One key with 600 values spans 3 pages.
	for v := int32(1); v <= 600; v++ {
		ts = append(ts, Tuple{Key: 5, Val: v})
	}
	ts = append(ts, Tuple{Key: 1, Val: 1}, Tuple{Key: 9, Val: 9})
	r := Build(d, "rel", ts)
	p := pool(t, d, 4)
	n, err := r.Probe(p, 5, func(int32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("probe visited %d values, want 600", n)
	}
	if got := p.Stats().Misses; got != 3 {
		t.Fatalf("probe read %d pages, want 3", got)
	}
}

func TestProbeMissingKey(t *testing.T) {
	d := pagedisk.New()
	r := Build(d, "rel", []Tuple{{1, 2}, {5, 6}})
	p := pool(t, d, 2)
	n, err := r.Probe(p, 3, func(int32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("probe of missing key visited %d", n)
	}
}

func TestEmptyRelation(t *testing.T) {
	d := pagedisk.New()
	r := Build(d, "rel", nil)
	if r.NumPages() != 0 || r.NumTuples() != 0 {
		t.Fatalf("empty relation: pages=%d tuples=%d", r.NumPages(), r.NumTuples())
	}
	p := pool(t, d, 2)
	if err := r.Scan(p, func(Tuple) bool { t.Fatal("callback on empty relation"); return false }); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Probe(p, 1, func(int32) bool { return true }); n != 0 {
		t.Fatal("probe on empty relation returned tuples")
	}
}

func TestBuildInverse(t *testing.T) {
	d := pagedisk.New()
	arcs := []Tuple{{1, 2}, {1, 3}, {2, 3}, {4, 3}}
	inv := BuildInverse(d, "inv", arcs)
	p := pool(t, d, 4)
	var preds []int32
	if _, err := inv.Probe(p, 3, func(v int32) bool { preds = append(preds, v); return true }); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 4}
	if len(preds) != len(want) {
		t.Fatalf("predecessors of 3 = %v, want %v", preds, want)
	}
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("preds = %v, want %v", preds, want)
		}
	}
}

// TestScanProbeAgreeProperty: for random relations, the union of all probes
// over the key range equals the scan.
func TestScanProbeAgreeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ts []Tuple
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			ts = append(ts, Tuple{Key: int32(rng.Intn(50) + 1), Val: int32(rng.Intn(50) + 1)})
		}
		d := pagedisk.New()
		r := Build(d, "rel", ts)
		pol, _ := buffer.NewPolicy("lru", 3)
		p := buffer.New(d, 3, pol)
		scanned := 0
		_ = r.Scan(p, func(Tuple) bool { scanned++; return true })
		probed := 0
		for k := int32(1); k <= 50; k++ {
			m, _ := r.Probe(p, k, func(int32) bool { return true })
			probed += m
		}
		return scanned == probed && scanned == r.NumTuples()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
