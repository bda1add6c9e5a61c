package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"tcstudy/internal/api"
	"tcstudy/internal/core"
	"tcstudy/internal/graph"
	"tcstudy/internal/server"
)

// cyclicCases are the seeded cyclic digraphs of the harness: three shapes
// of the clean grid with back arcs and self-arcs added (Case.Cyclic).
func cyclicCases() []Case {
	return []Case{
		{Seed: 31, Nodes: 30, OutDegree: 2, Locality: 10, BufferPages: 5, Cyclic: true},
		{Seed: 32, Nodes: 60, OutDegree: 3, Locality: 15, BufferPages: 5, Cyclic: true},
		{Seed: 33, Nodes: 100, OutDegree: 4, Locality: 25, BufferPages: 12, Cyclic: true},
	}
}

// cyclicShapes are the query shapes every cyclic case is asked: the full
// closure, one source that lies on a cycle, and eight drawn sources.
func cyclicShapes(t *testing.T, c Case, oracle map[int32][]int32) [][]int32 {
	t.Helper()
	for v := int32(1); v <= int32(c.Nodes); v++ {
		if slices.Contains(oracle[v], v) && len(oracle[v]) > 1 {
			c.Sources = 8
			_, _, eight, err := c.materialize()
			if err != nil {
				t.Fatal(err)
			}
			return [][]int32{nil, {v}, eight}
		}
	}
	t.Fatalf("case {%s}: no node on a cycle", c)
	return nil
}

// serve drives one request through the in-process tcserve handler.
func serve(t *testing.T, s *server.Server, method, target string, body any, reply any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, &buf))
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
	}
	return rec.Code
}

// dagOnly are the strategies that need a DAG — the list-closure and
// Compute_Tree families — and so answer a cyclic graph on its condensation.
var dagOnly = []core.Algorithm{core.BTC, core.HYB, core.BJ, core.SPN, core.JKB, core.JKB2}

// TestCyclicInputEveryEntry is the cyclic half of the harness's claim: on a
// graph with cycles, every strategy through every entry point returns the
// oracle's answer, the DAG-only ones by way of the condensation.
func TestCyclicInputEveryEntry(t *testing.T) {
	for _, c := range cyclicCases() {
		g, db, _, err := c.materialize()
		if err != nil {
			t.Fatal(err)
		}
		full := Oracle(c.Nodes, g.Arcs(), nil)
		srv := server.New(db, server.Options{})
		sess, err := core.NewSession(db, c.config())
		if err != nil {
			t.Fatal(err)
		}
		cond := g.Condense()
		condDB := core.NewDatabase(cond.K(), cond.DAG.Arcs())
		for _, sources := range cyclicShapes(t, c, full) {
			want := Oracle(c.Nodes, g.Arcs(), sources)
			q := core.Query{Sources: sources}
			for _, alg := range core.Algorithms() {
				entries := []struct {
					name string
					run  func() (map[int32][]int32, error)
				}{
					{"Run", func() (map[int32][]int32, error) {
						res, err := core.Run(db, alg, q, c.config())
						return successorsOf(res), err
					}},
					{"RunOne", func() (map[int32][]int32, error) {
						r := core.RunOne(db, core.Request{Alg: alg, Query: q, Cfg: c.config()})
						return successorsOf(r.Result), r.Err
					}},
					{"Session.Run", func() (map[int32][]int32, error) {
						res, err := sess.Run(alg, q)
						return successorsOf(res), err
					}},
					{"POST /v1/query", func() (map[int32][]int32, error) {
						var reply api.QueryResponse
						code := serve(t, srv, "POST", "/v1/query", api.QueryRequest{
							Algorithm: string(alg), Sources: sources, BufferPages: c.BufferPages, IncludeSuccessors: true,
						}, &reply)
						if code != http.StatusOK {
							return nil, fmt.Errorf("status %d", code)
						}
						return reply.Successors, nil
					}},
				}
				for _, e := range entries {
					got, err := e.run()
					if err != nil {
						t.Errorf("case {%s}: %s via %s sources %v: %v", c, alg, e.name, sources, err)
					} else if err := diff(got, want); err != nil {
						t.Errorf("case {%s}: %s via %s sources %v: %v", c, alg, e.name, sources, err)
					}
				}
			}

			// The route's metric record is a direct run on the condensation's
			// database with the sources mapped to their components, timing
			// aside: the condensation is built once, never charged.
			var mapped []int32
			for _, s := range sources {
				mapped = append(mapped, cond.Component[s])
			}
			for _, alg := range dagOnly {
				route, err := core.Run(db, alg, q, c.config())
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.Run(condDB, alg, core.Query{Sources: mapped}, c.config())
				if err != nil {
					t.Fatal(err)
				}
				got, want := untimed(route.Metrics), untimed(ref.Metrics)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("case {%s}: %s sources %v: route record %+v, direct run on the condensation %+v", c, alg, sources, got, want)
				}
			}

			// GET /v1/reach with no index falls back to the engine (SRCH):
			// every probe from a requested source is the oracle's membership.
			for _, src := range sources {
				for dst := int32(1); dst <= int32(c.Nodes); dst++ {
					var reply api.ReachResponse
					if code := serve(t, srv, "GET", fmt.Sprintf("/v1/reach?src=%d&dst=%d", src, dst), nil, &reply); code != http.StatusOK {
						t.Fatalf("case {%s}: reach %d->%d: status %d", c, src, dst, code)
					}
					if wantReach := slices.Contains(want[src], dst); reply.IndexHit || reply.Reachable != wantReach {
						t.Errorf("case {%s}: reach %d->%d = %t (index_hit=%t), oracle says %t", c, src, dst, reply.Reachable, reply.IndexHit, wantReach)
					}
				}
			}
		}
		// SCHMITZ keeps the components of the engine's walk over relation
		// probes; graph.SCC runs the same walk over the arc list. The
		// answers must imply exactly its partition: two nodes share a
		// component iff each reaches the other, and a node reaches itself
		// iff its component is cyclic.
		res, err := core.Run(db, core.SCHMITZ, core.Query{}, c.config())
		if err != nil {
			t.Fatal(err)
		}
		scc := graph.SCC(c.Nodes, g.Arcs())
		for u := int32(1); u <= int32(c.Nodes); u++ {
			if got, want := slices.Contains(res.Successors[u], u), scc.Cyclic[scc.Component[u]]; got != want {
				t.Errorf("case {%s}: SCHMITZ says %d reaches itself: %t; its component is cyclic: %t", c, u, got, want)
			}
			for v := u + 1; v <= int32(c.Nodes); v++ {
				mutual := slices.Contains(res.Successors[u], v) && slices.Contains(res.Successors[v], u)
				if same := scc.Component[u] == scc.Component[v]; mutual != same {
					t.Errorf("case {%s}: SCHMITZ has %d and %d mutually reachable: %t; graph.SCC has them in one component: %t", c, u, v, mutual, same)
				}
			}
		}

		// The planner profiles the condensation, where the rectangle model
		// is defined.
		if code := serve(t, srv, "GET", "/v1/plan?sources=1", nil, &api.PlanResponse{}); code != http.StatusOK {
			t.Errorf("case {%s}: /v1/plan on a cyclic tenant: status %d, want 200", c, code)
		}
		srv.Close()
	}
}

// untimed is a metric record without its wall-clock fields, the one part
// two runs of the same work do not share.
func untimed(m core.Metrics) core.Metrics {
	m.RestructureTime, m.ComputeTime = 0, 0
	return m
}

func successorsOf(res *core.Result) map[int32][]int32 {
	if res == nil {
		return nil
	}
	return res.Successors
}
