package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tcstudy/internal/graph"
	"tcstudy/internal/index"
)

// FuzzParseBatch hammers the mutation-batch decoder: whatever the bytes,
// it must either reject the batch or return one that passes every
// invariant the apply path depends on — no panics, no half-valid batches.
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte(`{"ops":[{"op":"insert","from":1,"to":2}]}`))
	f.Add([]byte(`{"ops":[{"op":"delete","from":3,"to":3},{"op":"insert","from":2,"to":1}]}`))
	f.Add([]byte(`{"seq":7,"ops":[{"op":"insert","from":1,"to":1}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{"ops":[{"op":"upsert","from":1,"to":2}]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","from":0,"to":9999}]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","from":1,"to":2}]}trailing`))
	f.Add([]byte(`{"unknown":1,"ops":[{"op":"insert","from":1,"to":2}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, maxOps = 100, 8
		b, err := ParseBatch(data, n, maxOps)
		if err != nil {
			return
		}
		if len(b.Ops) == 0 || len(b.Ops) > maxOps {
			t.Fatalf("accepted batch with %d ops (limit %d)", len(b.Ops), maxOps)
		}
		for i, o := range b.Ops {
			if o.Op != OpInsert && o.Op != OpDelete {
				t.Fatalf("op %d: accepted verb %q", i, o.Op)
			}
			if o.From < 1 || o.To < 1 || int(o.From) > n || int(o.To) > n {
				t.Fatalf("op %d: accepted out-of-range arc (%d,%d)", i, o.From, o.To)
			}
		}
	})
}

// FuzzPrefixInstall interleaves batches with rebuild snapshots and
// installs in any order — several builds in flight, older ones installed
// after newer ones — and checks after every install that every Reach is
// exact at the current log position and, when the install landed, that
// the new generation is exact at its own. The crash-recovery leg replays the log batch by batch into
// a fresh service with a build installed one batch after each snapshot,
// under the same checks, and must converge to the survivor's state.
//
// Each 3-byte record is one step: c%4 picks a batch (0, 1), a build start
// (2) or an install (3); the other bits of c and the bytes x, y pick the
// ops' verbs and arcs, or which build to install.
func FuzzPrefixInstall(f *testing.F) {
	f.Add([]byte{4, 3, 4, 2, 0, 0, 0, 0, 1, 12, 1, 2, 3, 0, 0})
	f.Add([]byte{4, 1, 2, 2, 0, 0, 4, 3, 4, 2, 0, 0, 0, 4, 5, 3, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 2, 2, 4, 3, 4, 2, 0, 0, 4, 2, 2, 3, 0, 0}) // self-loop delete replayed
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 24; k++ {
		seed := make([]byte, 3*(8+rng.Intn(40)))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 6
		base := append(baseChain(n), graph.Arc{From: 1, To: 3}, graph.Arc{From: 2, To: 4})
		s, set := newService(t, n, base, Options{Manual: true})
		history := []arcSet{set.clone()}
		type build struct {
			seq int64
			nx  *index.Index
		}
		var builds []build
		for i := 0; i+3 <= len(data) && i < 3*64; i += 3 {
			c, x, y := data[i], data[i+1], data[i+2]
			ctx := fmt.Sprintf("step %d", i/3)
			switch c % 4 {
			case 0, 1:
				verb := func(bit byte) string {
					if c&bit != 0 {
						return OpDelete
					}
					return OpInsert
				}
				ops := []Op{{Op: verb(4), From: int32(x%n) + 1, To: int32(y%n) + 1}}
				if c&8 != 0 {
					ops = append(ops, Op{Op: verb(16), From: int32(x/n%n) + 1, To: int32(y/n%n) + 1})
				}
				mustApply(t, s, set, ops...)
				history = append(history, set.clone())
			case 2:
				if s.Stats().Dirty {
					seq, nx := startBuild(t, s)
					builds = append(builds, build{seq, nx})
				}
			case 3:
				if len(builds) == 0 {
					continue
				}
				k := int(x) % len(builds)
				b := builds[k]
				builds = slices.Delete(builds, k, k+1)
				gen := s.Stats().Generation
				if err := s.install(b.nx, b.seq, time.Now()); err != nil {
					t.Fatalf("%s: install: %v", ctx, err)
				}
				if s.Stats().Generation > gen {
					checkInstalled(t, s, n, history, ctx+" install")
				} else {
					checkServing(t, s, n, history, ctx+" dropped install")
				}
			}
		}

		fresh, _ := newService(t, n, base, Options{Manual: true})
		for _, b := range s.Log() {
			var pending *build
			if fresh.Stats().Dirty {
				seq, nx := startBuild(t, fresh)
				pending = &build{seq, nx}
			}
			if err := fresh.ReplayLog([]Batch{b}); err != nil {
				t.Fatal(err)
			}
			if pending != nil {
				if err := fresh.install(pending.nx, pending.seq, time.Now()); err != nil {
					t.Fatalf("replay of batch %d: install: %v", b.Seq, err)
				}
				checkInstalled(t, fresh, n, history, fmt.Sprintf("replay of batch %d", b.Seq))
			}
		}
		a, b := s.Stats(), fresh.Stats()
		if a.Seq != b.Seq || a.Fingerprint != b.Fingerprint || a.NumArcs != b.NumArcs {
			t.Fatalf("replayed service diverged: seq %d/%d fp %016x/%016x arcs %d/%d",
				a.Seq, b.Seq, a.Fingerprint, b.Fingerprint, a.NumArcs, b.NumArcs)
		}
		for _, svc := range []*Service{s, fresh} {
			if err := svc.RebuildNow(); err != nil {
				t.Fatal(err)
			}
			checkInstalled(t, svc, n, history, "quiesced")
		}
	})
}
