package index

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"tcstudy/internal/faultdisk"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 300, OutDegree: 4, Locality: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return graph.New(300, arcs)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t)
	x := mustBuild(t, g)
	path := filepath.Join(t.TempDir(), "g.idx")
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	y, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if y.N() != x.N() || y.NumArcs() != x.NumArcs() {
		t.Fatalf("shape changed: n %d->%d arcs %d->%d", x.N(), y.N(), x.NumArcs(), y.NumArcs())
	}
	for u := int32(1); u <= int32(g.N()); u += 7 {
		for v := int32(1); v <= int32(g.N()); v += 3 {
			if x.Reach(u, v) != y.Reach(u, v) {
				t.Fatalf("Reach(%d,%d) changed across save/load", u, v)
			}
		}
	}
	// The loaded index keeps full functionality: inserts and stats work.
	if _, err := y.InsertArcMerge(1, int32(g.N())); err != nil {
		t.Fatal(err)
	}
	if st := y.ComputeStats(); st.Nodes != g.N() {
		t.Fatalf("stats after load: %+v", st)
	}
}

func TestSaveLoadPreservesSelfLoops(t *testing.T) {
	g := graph.New(3, []graph.Arc{{From: 1, To: 2}, {From: 3, To: 3}})
	x := mustBuild(t, g)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Reach(3, 3) || y.Reach(1, 1) {
		t.Fatal("self-loop bitset lost across save/load")
	}
}

// TestLoadRejectsStaleFlag: flag bit 0 once marked an index an insert had
// invalidated. No writer sets it any more, and a file carrying it — its
// labels older than its graph — must be refused, whichever builder wrote it.
func TestLoadRejectsStaleFlag(t *testing.T) {
	g := testGraph(t)
	for _, x := range []*Index{mustBuild(t, g), mustBuildKT(t, g, 1)} {
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), buf.Bytes()...)
		bad[24] |= 1 // flags word: magic, version, n, K, numChains, numArcs precede it
		if _, err := Load(bytes.NewReader(refreshCRC(bad))); err == nil || !strings.Contains(err.Error(), "reserved flag") {
			t.Fatalf("%s index with flag bit 0 set: %v", x.Builder(), err)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	x := mustBuild(t, testGraph(t))
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every strict prefix must be rejected; probe a spread of cut points
	// including the section boundaries near the start and end.
	for _, cut := range []int{0, 3, 4, 8, 16, 40, len(whole) / 2, len(whole) - 5, len(whole) - 1} {
		if cut >= len(whole) {
			continue
		}
		if _, err := Load(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(whole))
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	x := mustBuild(t, testGraph(t))
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, off := range []int{0, 5, 9, 20, len(whole) / 3, len(whole) / 2, len(whole) - 2} {
		mut := append([]byte(nil), whole...)
		mut[off] ^= 0x10
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", off)
		}
	}
}

func TestLoadRejectsWrongMagicAndVersion(t *testing.T) {
	x := mustBuild(t, testGraph(t))
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	copy(bad, "NOPE")
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic: %v", err)
	}
	// A version bump alone also breaks the checksum; rewriting the CRC is
	// what a forward-incompatible writer would do, and the version check
	// must still reject it.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[4] = 99
	bad = refreshCRC(bad)
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: %v", err)
	}
}

func TestLoadRejectsOversizedHeader(t *testing.T) {
	x := mustBuild(t, graph.New(2, []graph.Arc{{From: 1, To: 2}}))
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Claim a huge node count: the loader must refuse before allocating.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0x7f
	bad = refreshCRC(bad)
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized header accepted")
	}
}

// refreshCRC recomputes the trailer so structural checks past the checksum
// can be exercised.
func refreshCRC(b []byte) []byte {
	body := b[:len(b)-4]
	return le32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestLoadRejectsTornWrite simulates the crash-mid-save failure mode with
// the fault-injection TornWriter: the writer acknowledges every byte but
// persists only a budget-limited prefix — exactly what a torn page or a
// lying disk cache produces. Every such prefix must fail to load.
func TestLoadRejectsTornWrite(t *testing.T) {
	x := mustBuild(t, testGraph(t))
	var whole bytes.Buffer
	if err := x.Save(&whole); err != nil {
		t.Fatal(err)
	}
	full := int64(whole.Len())
	for _, budget := range []int64{0, 7, 64, full / 3, full / 2, full - 1} {
		var torn bytes.Buffer
		if err := x.Save(&faultdisk.TornWriter{W: &torn, Budget: budget}); err != nil {
			t.Fatalf("budget %d: Save saw the tear: %v", budget, err)
		}
		if int64(torn.Len()) != budget {
			t.Fatalf("budget %d: %d bytes persisted", budget, torn.Len())
		}
		if _, err := Load(bytes.NewReader(torn.Bytes())); err == nil {
			t.Fatalf("torn write at %d of %d bytes loaded successfully", budget, full)
		}
	}
}

// TestBuildersSaveBytesPinned pins the TCIX bytes both builders write for
// three seeded graphs — a local DAG, a wide layered grid and a graph with
// cycles and self-arcs — so a change to the shared build skeleton that
// moves a single chain id, position or label entry shows up as a diff here.
func TestBuildersSaveBytesPinned(t *testing.T) {
	gridN, grid := gridArcs(6, 60, 2, 3)
	cyclic, err := graphgen.Generate(graphgen.Params{Nodes: 200, OutDegree: 3, Locality: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(10); v <= 200; v += 10 {
		cyclic = append(cyclic, graph.Arc{From: v, To: v - 7}, graph.Arc{From: v, To: v})
	}
	for _, tc := range []struct {
		name       string
		g          *graph.Graph
		greedy, kt string
	}{
		{"dag", testGraph(t), "2e07f66ae7ef82c2", "0ac3a1de3a9f1142"},
		{"grid", graph.New(gridN, grid), "f2731acf07399819", "d7aa146b9c7afb97"},
		{"cyclic", graph.New(200, cyclic), "78f2eb3b3fdf51cb", "04aad43d9ef3a15a"},
	} {
		sum := func(x *Index) string {
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
		}
		if got := sum(mustBuild(t, tc.g)); got != tc.greedy {
			t.Errorf("%s: Build wrote %s, pinned %s", tc.name, got, tc.greedy)
		}
		if got := sum(mustBuildKT(t, tc.g, 3)); got != tc.kt {
			t.Errorf("%s: BuildKT wrote %s, pinned %s", tc.name, got, tc.kt)
		}
	}
}
