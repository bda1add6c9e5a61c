package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tcstudy/internal/core"
	"tcstudy/internal/faultdisk"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/pagedisk"
)

// differentialGrid builds the clean-run case grid: five graph shapes, each
// at several seeds, alternating source sets and ILIMIT settings, at two
// pool sizes. Every case carries a distinct graph seed, so the full grid
// exercises 50 different random DAGs. Short mode keeps one seed per shape.
func differentialGrid(short bool) []Case {
	shapes := []struct{ n, f, l int }{
		{60, 3, 15},  // small and sparse
		{100, 4, 25}, // the paper's default shape, scaled down
		{150, 5, 40}, // denser, longer paths
		{80, 6, 10},  // tight locality: heavy duplication
		{120, 2, 60}, // loose locality: scattered pages
	}
	seeds := 5
	if short {
		seeds = 1
	}
	var cases []Case
	for si, sh := range shapes {
		for k := 0; k < seeds; k++ {
			srcs := 0
			if k%2 == 1 {
				srcs = 3 // alternate full closure and partial closure
			}
			ilimit := 0.0
			if k%3 == 2 {
				ilimit = 0.4
			}
			for pi, m := range []int{5, 12} {
				cases = append(cases, Case{
					Seed:        int64(1 + si*1000 + k*100 + pi*10),
					Nodes:       sh.n,
					OutDegree:   sh.f,
					Locality:    sh.l,
					Sources:     srcs,
					BufferPages: m,
					ILIMIT:      ilimit,
				})
			}
		}
	}
	return cases
}

// TestDifferentialCleanGrid is the harness's core claim: all eight
// candidate algorithms agree with the independent BFS oracle on every
// graph in the grid (50 distinct seeded DAGs in full mode), and HYB at
// ILIMIT=0 degenerates to BTC exactly.
func TestDifferentialCleanGrid(t *testing.T) {
	cases := differentialGrid(testing.Short())
	if !testing.Short() && len(cases) < 50 {
		t.Fatalf("grid has %d cases, want at least 50", len(cases))
	}
	for _, c := range cases {
		if err := RunClean(c); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestDifferentialFaultSchedule verifies the acceptance contract for
// scripted faults: a scheduled read failure surfaces as a clean,
// transient, per-query error — no panic, no wrong answer — and the same
// engine session answers correctly afterwards.
func TestDifferentialFaultSchedule(t *testing.T) {
	c := Case{Seed: 42, Nodes: 120, OutDegree: 4, Locality: 30, BufferPages: 8}
	g, db, sources, err := c.materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := Oracle(c.Nodes, g.Arcs(), sources)

	sched, err := faultdisk.ParseSchedule("read@7")
	if err != nil {
		t.Fatal(err)
	}
	// Wrap before opening the session: the session's pool binds to the
	// store it sees at creation time.
	fd := faultdisk.Wrap(db.Store(), faultdisk.Options{Schedule: sched})
	db.SwapStore(fd)
	sess, err := core.NewSession(db, c.config())
	if err != nil {
		t.Fatal(err)
	}

	_, err = sess.Run(core.BTC, core.Query{})
	if err == nil {
		t.Fatalf("case {%s} faults {%s}: scheduled read failure did not surface", c, fd.Options())
	}
	if !pagedisk.IsTransient(err) {
		t.Fatalf("case {%s} faults {%s}: error is not transient: %v", c, fd.Options(), err)
	}
	if !errors.Is(err, faultdisk.ErrInjected) {
		t.Fatalf("case {%s} faults {%s}: error does not unwrap to ErrInjected: %v", c, fd.Options(), err)
	}
	if got := sess.Faults(); got != 1 {
		t.Fatalf("session recorded %d faults, want 1", got)
	}

	// The schedule named read #7 only; the sequence counter has moved
	// past it, so the same session must now answer — and correctly.
	res, err := sess.Run(core.BTC, core.Query{})
	if err != nil {
		t.Fatalf("case {%s} faults {%s}: session unusable after fault: %v", c, fd.Options(), err)
	}
	if err := diff(res.Successors, want); err != nil {
		t.Fatalf("case {%s} faults {%s}: post-fault answer wrong: %v", c, fd.Options(), err)
	}
	if fd.Counters().Injected != 1 {
		t.Fatalf("injected %d faults, want 1", fd.Counters().Injected)
	}
}

// TestDifferentialRandomFaults storms every candidate algorithm with
// seed-driven probabilistic read/write/alloc failures. Each run must
// either produce the oracle answer or fail with a clean transient error;
// any panic or silent wrong answer fails with replay coordinates.
func TestDifferentialRandomFaults(t *testing.T) {
	c := Case{Seed: 7, Nodes: 100, OutDegree: 4, Locality: 25, BufferPages: 6}
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for s := 1; s <= seeds; s++ {
		opts := faultdisk.Options{
			Seed:          int64(s),
			ReadFailProb:  0.01,
			WriteFailProb: 0.005,
			AllocFailProb: 0.002,
		}
		if err := RunFaulted(c, opts); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestDifferentialFaultReplay pins determinism: running the identical
// case under the identical fault options twice must inject the same
// faults and produce the same outcome. This is what makes a chaos
// failure's printed coordinates an actual repro.
func TestDifferentialFaultReplay(t *testing.T) {
	c := Case{Seed: 11, Nodes: 90, OutDegree: 5, Locality: 20, BufferPages: 5}
	opts := faultdisk.Options{Seed: 3, ReadFailProb: 0.02, WriteFailProb: 0.01}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	first := errText(RunFaulted(c, opts))
	for i := 0; i < 3; i++ {
		if again := errText(RunFaulted(c, opts)); again != first {
			t.Fatalf("replay diverged:\n run 0: %s\n run %d: %s", first, i+1, again)
		}
	}
}

// TestMonotonePageIO asserts the stack-algorithm invariant: with ILIMIT=0
// (pool-independent reference strings), growing the buffer pool never
// increases any algorithm's total page I/O.
func TestMonotonePageIO(t *testing.T) {
	cases := []Case{
		{Seed: 21, Nodes: 100, OutDegree: 4, Locality: 25},
		{Seed: 22, Nodes: 120, OutDegree: 3, Locality: 50},
		{Seed: 23, Nodes: 80, OutDegree: 6, Locality: 12, Sources: 4},
	}
	sizes := []int{4, 6, 10, 16, 32}
	for _, c := range cases {
		if err := MonotoneIO(c, sizes); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestSnapshotCorruptionDetected closes the durability loop: a saved
// database with any single snapshot file torn or bit-flipped must refuse
// to load — the CRC trailer turns silent corruption into a clean error.
func TestSnapshotCorruptionDetected(t *testing.T) {
	c := Case{Seed: 5, Nodes: 60, OutDegree: 3, Locality: 15}
	_, db, _, err := c.materialize()
	if err != nil {
		t.Fatal(err)
	}
	clean := t.TempDir()
	if err := core.SaveDatabase(db, clean); err != nil {
		t.Fatal(err)
	}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for s := 1; s <= seeds; s++ {
		dir := t.TempDir()
		copyDir(t, clean, dir)
		cor, err := faultdisk.CorruptOne(filepath.Join(dir, "*.pg"), int64(s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.OpenDatabase(dir); err == nil {
			t.Errorf("seed %d: database loaded despite corruption {%s}", s, cor)
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialDuplicateSources pins that a source list with repeats is
// the query of its set: all eleven algorithms, through every engine entry
// point, return each source's successors once — the oracle's answer — and
// do exactly the work of the repeat-free list in first-occurrence order.
func TestDifferentialDuplicateSources(t *testing.T) {
	c := Case{Seed: 77, Nodes: 100, OutDegree: 4, Locality: 25, BufferPages: 10}
	g, db, _, err := c.materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Three sources that reach something, so a doubled answer shows.
	var set []int32
	all := Oracle(c.Nodes, g.Arcs(), nil)
	for v := int32(c.Nodes); v >= 1 && len(set) < 3; v-- {
		if len(all[v]) >= 5 {
			set = append(set, v)
		}
	}
	repeats := []int32{set[0], set[0], set[1], set[0], set[2], set[1]}
	want := Oracle(c.Nodes, g.Arcs(), set)
	for _, alg := range core.Algorithms() {
		ref, err := core.Run(db, alg, core.Query{Sources: set}, c.config())
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		sess, err := core.NewSession(db, c.config())
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func() (*core.Result, error){
			"Run": func() (*core.Result, error) {
				return core.Run(db, alg, core.Query{Sources: repeats}, c.config())
			},
			"RunConcurrent": func() (*core.Result, error) {
				r := core.RunConcurrent(db, []core.Request{{Alg: alg, Query: core.Query{Sources: repeats}, Cfg: c.config()}})[0]
				return r.Result, r.Err
			},
			"Session.Run": func() (*core.Result, error) {
				return sess.Run(alg, core.Query{Sources: repeats})
			},
		}
		for name, run := range entries {
			got, err := run()
			if err != nil {
				t.Fatalf("%s via %s: %v", alg, name, err)
			}
			if err := diff(got.Successors, want); err != nil {
				t.Errorf("%s via %s with repeated sources: %v", alg, name, err)
			}
			if len(got.Successors) != len(set) {
				t.Errorf("%s via %s: %d answer entries for %d distinct sources", alg, name, len(got.Successors), len(set))
			}
			if a, b := fingerprint(got.Metrics), fingerprint(ref.Metrics); a != b {
				t.Errorf("%s via %s: repeated sources changed the work:\n  got  %s\n  want %s", alg, name, a, b)
			}
		}
	}
}

// TestSessionBesideConcurrentBatches runs a Session and RunConcurrent
// batches over one database at the same time. Their temp files interleave
// by ID, so the session must release by ownership: a range sweep would
// truncate the batches' live files (surfacing as "page out of range", or —
// with recycled pages — as one query reading another's bytes). Every
// answer on both sides must equal the oracle's. Run under -race.
func TestSessionBesideConcurrentBatches(t *testing.T) {
	c := Case{Seed: 91, Nodes: 150, OutDegree: 5, Locality: 40, BufferPages: 10}
	g, db, _, err := c.materialize()
	if err != nil {
		t.Fatal(err)
	}
	sources := graphgen.SourceSet(c.Nodes, 6, c.Seed+1)
	want := Oracle(c.Nodes, g.Arcs(), sources)
	q := core.Query{Sources: sources}
	const rounds = 6

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var batch []core.Request
		for _, alg := range Candidates() {
			batch = append(batch, core.Request{Alg: alg, Query: q, Cfg: c.config()})
		}
		for r := 0; r < rounds; r++ {
			for i, resp := range core.RunConcurrent(db, batch) {
				if resp.Err != nil {
					t.Errorf("batch round %d %s: %v", r, batch[i].Alg, resp.Err)
				} else if err := diff(resp.Result.Successors, want); err != nil {
					t.Errorf("batch round %d %s: %v", r, batch[i].Alg, err)
				}
			}
		}
	}()
	sess, err := core.NewSession(db, c.config())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for _, alg := range Candidates() {
			res, err := sess.Run(alg, q)
			if err != nil {
				t.Errorf("session round %d %s: %v", r, alg, err)
			} else if err := diff(res.Successors, want); err != nil {
				t.Errorf("session round %d %s: %v", r, alg, err)
			}
		}
	}
	wg.Wait()
}
