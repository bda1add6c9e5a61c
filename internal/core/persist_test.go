package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/pagedisk"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	g, db := randomDAG(t, 501, 150, 4, 30)
	dir := t.TempDir()

	// Run a query first so temporary files existed and were released; the
	// snapshot must still round-trip cleanly.
	if _, err := Run(db, BTC, Query{}, Config{BufferPages: 8}); err != nil {
		t.Fatal(err)
	}
	if err := SaveDatabase(db, dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.N() != db.N() || re.NumArcs() != db.NumArcs() {
		t.Fatalf("restored n=%d arcs=%d, want n=%d arcs=%d",
			re.N(), re.NumArcs(), db.N(), db.NumArcs())
	}

	// Queries over the restored database give the reference answers and
	// identical I/O accounting.
	sources := graphgen.SourceSet(150, 5, 2)
	want := refSuccessors(t, g, sources)
	for _, alg := range []Algorithm{BTC, SRCH, JKB2, WARREN} {
		orig, err := Run(db, alg, Query{Sources: sources}, Config{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		rest, err := Run(re, alg, Query{Sources: sources}, Config{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, alg, rest.Successors, want, false, g)
		if orig.Metrics.TotalIO() != rest.Metrics.TotalIO() {
			t.Fatalf("%s: restored I/O %d != original %d",
				alg, rest.Metrics.TotalIO(), orig.Metrics.TotalIO())
		}
	}
}

func TestOpenDatabaseErrors(t *testing.T) {
	if _, err := OpenDatabase(t.TempDir()); err == nil {
		t.Fatal("opened an empty directory")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDatabase(dir); err == nil {
		t.Fatal("opened a corrupt manifest")
	}
}

func TestRunReleasesTemporaryFiles(t *testing.T) {
	_, db := randomDAG(t, 502, 150, 4, 30)
	before := db.disk.NumFiles()
	if _, err := Run(db, BTC, Query{}, Config{BufferPages: 8}); err != nil {
		t.Fatal(err)
	}
	// New file slots may exist but must hold no pages.
	for id := before; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(pagedisk.FileID(id)); n != 0 {
			t.Fatalf("temporary file %d still holds %d pages", id, n)
		}
	}
	// Repeated runs must not accumulate page storage.
	for i := 0; i < 3; i++ {
		if _, err := Run(db, SEMI, Query{Sources: []int32{1}}, Config{BufferPages: 8}); err != nil {
			t.Fatal(err)
		}
	}
	for id := before; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(pagedisk.FileID(id)); n != 0 {
			t.Fatalf("after repeated runs, file %d holds %d pages", id, n)
		}
	}
}

func TestDatabaseArcsRoundTrip(t *testing.T) {
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: 80, OutDegree: 3, Locality: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(80, arcs)
	got, err := db.Arcs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != db.NumArcs() {
		t.Fatalf("Arcs returned %d, relation has %d", len(got), db.NumArcs())
	}
	seen := map[[2]int32]bool{}
	for _, a := range got {
		seen[[2]int32{a.From, a.To}] = true
	}
	for _, a := range arcs {
		if !seen[[2]int32{a.From, a.To}] {
			t.Fatalf("arc %v missing from Arcs()", a)
		}
	}
	if db.disk.Stats().Total() != 0 {
		t.Fatal("Arcs() left charged I/O behind")
	}
}

func TestWeightedSaveOpenRoundTrip(t *testing.T) {
	g, db := weightedDB(t, 510, 120, 3, 25)
	want := refWeighted(t, g, MinWeight)
	dir := t.TempDir()
	if err := SaveDatabase(db, dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Weighted() {
		t.Fatal("weight column lost in snapshot")
	}
	res, err := RunPaths(re, MinWeight, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	var all []int32
	for v := int32(1); v <= int32(g.N()); v++ {
		all = append(all, v)
	}
	checkPathValues(t, MinWeight, res.Values, want, all)
}

// TestOpenDatabaseLearnsCycles pins that a restored database knows whether
// its graph is a DAG exactly as a built one does, and that a snapshot whose
// arcs leave the manifest's node space is refused rather than analysed.
func TestOpenDatabaseLearnsCycles(t *testing.T) {
	arcs := []graph.Arc{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}, {From: 3, To: 4}}
	dir := t.TempDir()
	if err := SaveDatabase(NewDatabase(4, arcs), dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	// BTC answers on the condensation the restore rebuilt, SCHMITZ on the
	// graph itself; both see node 1 on the cycle reach all four nodes.
	for _, alg := range []Algorithm{BTC, SCHMITZ} {
		res, err := Run(re, alg, Query{Sources: []int32{1}}, Config{BufferPages: 8})
		if err != nil || len(res.Successors[1]) != 4 {
			t.Fatalf("%s on a restored cyclic database: %v, %v", alg, res, err)
		}
	}
	if re.cond == nil || re.cond.K() != 2 {
		t.Fatalf("restored cyclic database: condensation %+v, want 2 components", re.cond)
	}

	path := filepath.Join(dir, manifestName)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m.N = 3
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDatabase(dir); err == nil || !strings.Contains(err.Error(), "outside its node space") {
		t.Fatalf("opened a snapshot with arcs outside 1..N: %v", err)
	}
}
