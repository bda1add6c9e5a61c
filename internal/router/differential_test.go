package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"testing"

	"tcstudy/internal/api"
)

// postShardQuery sends one tcserve-shaped query directly to a replica and
// decodes the raw shard response.
func postShardQuery(t *testing.T, base string, body any) api.QueryResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct query status %d", resp.StatusCode)
	}
	var sr api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// canonical returns a copy of a successor map with each list sorted, the
// order-free encoding of the reachable sets.
func canonical(m map[int32][]int32) map[int32][]int32 {
	out := make(map[int32][]int32, len(m))
	for node, succ := range m {
		s := append([]int32(nil), succ...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[node] = s
	}
	return out
}

// zeroWallClock clears the fields a merge cannot reproduce across runs:
// measured wall times differ between processes even on identical work.
// Everything else in a record — counters, I/O totals, derived ratios,
// the estimated (model-based) I/O time — is deterministic.
func zeroWallClock(r Record) Record {
	r.RestructureMS = 0
	r.ComputeMS = 0
	return r
}

// TestRouterDifferential proves the scatter-gather tier is invisible to
// correctness: for seeded graphs served by three shards, the router's
// gathered answer is byte-identical to a single tcserve's answer for the
// same multi-source query, and the router's merged metric record equals
// MergeRecords applied to the per-shard records a single server produces
// for exactly the router's shard sub-queries.
func TestRouterDifferential(t *testing.T) {
	const nodes = 300
	for _, seed := range []int64{7, 23} {
		a := newReplicaServer(t, nodes, seed)
		b := newReplicaServer(t, nodes, seed)
		c := newReplicaServer(t, nodes, seed)
		single := newReplicaServer(t, nodes, seed)
		rt, ts := newFleetRouter(t, Options{}, a.URL, b.URL, c.URL)

		// Choose sources that provably cover all three replicas: the ring
		// depends on the ephemeral httptest URLs, so fixed vertex IDs
		// cannot guarantee a three-way scatter.
		var sources []int32
		perOwner := map[*replica]int{}
		for s := int32(1); s <= int32(nodes) && len(sources) < 6; s++ {
			rep := rt.snapshot().owner(s)
			if perOwner[rep] < 2 {
				perOwner[rep]++
				sources = append(sources, s)
			}
		}
		if len(perOwner) != 3 {
			t.Fatalf("seed %d: sources cover %d replicas, want 3", seed, len(perOwner))
		}

		for _, alg := range []string{"srch", "bj", "btc"} {
			body := map[string]any{"algorithm": alg, "sources": sources, "include_successors": true}

			resp, got := postRouterQuery(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d alg %s: router status %d", seed, alg, resp.StatusCode)
			}
			if got.Shards != 3 {
				t.Fatalf("seed %d alg %s: query scattered to %d shards, want 3 for the differential to mean anything", seed, alg, got.Shards)
			}
			want := postShardQuery(t, single.URL, body)

			// Answers must be byte-identical: encoding/json writes map
			// keys sorted, so equal content means equal bytes.
			gotCounts, wantCounts := mustJSON(t, got.SuccessorCounts), mustJSON(t, want.SuccessorCounts)
			if !bytes.Equal(gotCounts, wantCounts) {
				t.Fatalf("seed %d alg %s: successor_counts differ\nrouter: %s\nsingle: %s", seed, alg, gotCounts, wantCounts)
			}
			// Successor lists are laid out in processing order (see
			// core/metrics.go), which legitimately depends on how the
			// query was partitioned; the SET is the answer, so compare
			// the canonical sorted encoding.
			gotSucc, wantSucc := mustJSON(t, canonical(got.Successors)), mustJSON(t, canonical(want.Successors))
			if !bytes.Equal(gotSucc, wantSucc) {
				t.Fatalf("seed %d alg %s: successor sets differ", seed, alg)
			}

			// The merged metric record must be exactly MergeRecords over
			// the per-shard records: replay the router's own shard
			// sub-queries against the single server and merge those.
			rg := rt.snapshot()
			var shardRecords []Record
			for _, g := range partition(rg, sources, 0) {
				sub := map[string]any{"algorithm": alg, "sources": g.sources, "include_successors": true}
				shardRecords = append(shardRecords, postShardQuery(t, single.URL, sub).Metrics)
			}
			if len(shardRecords) != got.Shards {
				t.Fatalf("seed %d alg %s: replayed %d shard groups, router reported %d", seed, alg, len(shardRecords), got.Shards)
			}
			gotRec := mustJSON(t, zeroWallClock(got.Metrics))
			wantRec := mustJSON(t, zeroWallClock(MergeRecords(shardRecords)))
			if !bytes.Equal(gotRec, wantRec) {
				t.Fatalf("seed %d alg %s: merged metric records differ\nrouter: %s\nreplay: %s", seed, alg, gotRec, wantRec)
			}
		}

		// Full closure (empty source list) routes as a single shard and
		// must also match the single server bit for bit.
		body := map[string]any{"algorithm": "srch", "include_successors": true}
		resp, got := postRouterQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK || got.Shards != 1 {
			t.Fatalf("seed %d: full closure status %d shards %d", seed, resp.StatusCode, got.Shards)
		}
		want := postShardQuery(t, single.URL, body)
		if !bytes.Equal(mustJSON(t, got.SuccessorCounts), mustJSON(t, want.SuccessorCounts)) {
			t.Fatalf("seed %d: full-closure successor_counts differ", seed)
		}
		if !bytes.Equal(mustJSON(t, zeroWallClock(got.Metrics)), mustJSON(t, zeroWallClock(want.Metrics))) {
			t.Fatalf("seed %d: full-closure metric record differs", seed)
		}

		ts.Close()
		rt.Close()
		a.Close()
		b.Close()
		c.Close()
		single.Close()
	}
}
