package core

import (
	"errors"
	"testing"

	"tcstudy/internal/graphgen"
	"tcstudy/internal/pagedisk"
)

func TestSessionWarmBufferReducesIO(t *testing.T) {
	_, db := randomDAG(t, 701, 300, 4, 50)
	s, err := NewSession(db, Config{BufferPages: 40})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Sources: []int32{5, 9, 20}}
	first, err := s.Run(SRCH, q)
	if err != nil {
		t.Fatal(err)
	}
	// A request the engine refuses is not a storage fault: it must not cost
	// the session the pages the first query warmed.
	var invalid *InvalidInputError
	if _, err := s.Run(Algorithm("nope"), q); !errors.As(err, &invalid) {
		t.Fatalf("unknown algorithm: got %v, want *InvalidInputError", err)
	}
	if s.Faults() != 0 {
		t.Fatalf("refused request booked as %d fault(s)", s.Faults())
	}
	second, err := s.Run(SRCH, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Metrics.TotalIO() >= first.Metrics.TotalIO() {
		t.Fatalf("warm rerun I/O %d not below cold run %d",
			second.Metrics.TotalIO(), first.Metrics.TotalIO())
	}
	// And a fresh cold Run matches the first query's cost.
	cold, err := Run(db, SRCH, q, Config{BufferPages: 40})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.TotalIO() != first.Metrics.TotalIO() {
		t.Fatalf("session first query I/O %d != cold run %d",
			first.Metrics.TotalIO(), cold.Metrics.TotalIO())
	}
}

func TestSessionAnswersMatchRun(t *testing.T) {
	g, db := randomDAG(t, 702, 150, 4, 30)
	sources := graphgen.SourceSet(150, 5, 3)
	want := refSuccessors(t, g, sources)
	s, err := NewSession(db, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := s.Run(alg, Query{Sources: sources})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		checkAnswer(t, alg, res.Successors, want, false, g)
	}
	// Full closures also work mid-session.
	res, err := s.Run(BTC, Query{})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, BTC, res.Successors, refSuccessors(t, g, nil), true, g)
}

func TestSessionReleasesTemporaryStorage(t *testing.T) {
	_, db := randomDAG(t, 703, 150, 4, 30)
	s, err := NewSession(db, Config{BufferPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	base := db.disk.NumFiles()
	for i := 0; i < 4; i++ {
		if _, err := s.Run(BTC, Query{}); err != nil {
			t.Fatal(err)
		}
	}
	for id := base; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(pagedisk.FileID(id)); n != 0 {
			t.Fatalf("session left %d pages in temp file %d", n, id)
		}
	}
}

func TestSessionRecoversFromStorageFault(t *testing.T) {
	g, db := randomDAG(t, 704, 150, 4, 30)
	disk := db.Store().(*pagedisk.Disk)
	s, err := NewSession(db, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(BTC, Query{}); err != nil {
		t.Fatal(err)
	}
	disk.FailAfter(10)
	if _, err := s.Run(BTC, Query{}); !errors.Is(err, pagedisk.ErrIOInjected) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	disk.FailAfter(-1)
	if got := s.Faults(); got != 1 {
		t.Fatalf("session recorded %d faults, want 1", got)
	}
	// The same session keeps working after the fault: the failed run's
	// pins were dropped with the pool reset, so the very next query must
	// succeed and be correct.
	got, err := s.Run(BTC, Query{})
	if err != nil {
		t.Fatalf("session unusable after recovered fault: %v", err)
	}
	checkAnswer(t, BTC, got.Successors, refSuccessors(t, g, nil), true, g)
	// Recovery resets the pool, so the post-fault query runs cold: its
	// cost matches a fresh cold run exactly.
	cold, err := Run(db, BTC, Query{}, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.TotalIO() != cold.Metrics.TotalIO() {
		t.Fatalf("post-fault session I/O %d != cold run %d",
			got.Metrics.TotalIO(), cold.Metrics.TotalIO())
	}
	// Faults do not leak temporary storage.
	base := db.disk.NumFiles()
	disk.FailAfter(25)
	_, _ = s.Run(SPN, Query{})
	disk.FailAfter(-1)
	for id := base; id < db.disk.NumFiles(); id++ {
		if n := db.disk.NumPages(pagedisk.FileID(id)); n != 0 {
			t.Fatalf("recovered fault left %d pages in temp file %d", n, id)
		}
	}
	// Other query shapes keep working too.
	if _, err := s.Run(SRCH, Query{Sources: []int32{1}}); err != nil {
		t.Fatalf("session refused a later query: %v", err)
	}
}

func TestSessionValidation(t *testing.T) {
	_, db := randomDAG(t, 705, 50, 2, 10)
	if _, err := NewSession(db, Config{BufferPages: 2}); err == nil {
		t.Fatal("tiny pool accepted")
	}
	if _, err := NewSession(db, Config{BufferPages: 8, PagePolicy: "zzz"}); err == nil {
		t.Fatal("bad page policy accepted")
	}
	if _, err := NewSession(db, Config{BufferPages: 8, ListPolicy: "zzz"}); err == nil {
		t.Fatal("bad list policy accepted")
	}
	s, err := NewSession(db, Config{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Algorithm("nope"), Query{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := s.Run(BTC, Query{Sources: []int32{99}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
