package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tcstudy/internal/api"
)

// replicaState is one replica's enrollment state.
type replicaState int

const (
	// stateUnknown: never successfully health-checked; not routed to.
	stateUnknown replicaState = iota
	// stateHealthy: enrolled, fingerprint-matched, receiving traffic.
	stateHealthy
	// stateDown: marked out after FailThreshold consecutive failures (or
	// never up); re-enrolls after RecoverThreshold consecutive successes.
	stateDown
	// stateMismatched: answering /healthz but serving a different dataset
	// than the fleet; never routed to until its fingerprint matches.
	stateMismatched
)

func (s replicaState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDown:
		return "down"
	case stateMismatched:
		return "mismatched"
	default:
		return "unknown"
	}
}

// replica is the router's view of one tcserve instance. All mutable
// fields are guarded by the router's mu.
type replica struct {
	url string

	// Sub-request counters (tcr_shard_*_total), resolved at construction.
	requests, failures *atomic.Int64

	state       replicaState
	consecFails int
	consecOK    int
	lastErr     string

	// Last successful /healthz observation.
	fingerprint string
	nodes       int
	arcs        int
	indexGen    int64
	hasIndex    bool
	// graphs is the per-tenant identity block of the replica's /healthz.
	graphs map[string]api.GraphIdentity

	// Dynamic (mutable) replica state, from healthz's dynamic block or
	// refreshed by a write fan-out. lagExcluded marks a healthy replica
	// held out of the read ring because its applied sequence trails the
	// fleet beyond Options.MaxGenerationLag; it still receives writes.
	hasDyn      bool
	dynSeq      int64
	dynGen      int64
	dynPending  int
	lagExcluded bool
}

// count charges one sub-request to the replica and, when it did not return
// 200, the failure.
func (rep *replica) count(ok bool) {
	rep.requests.Add(1)
	if !ok {
		rep.failures.Add(1)
	}
}

// CheckNow sweeps every replica's /healthz once, synchronously, and
// applies the state transitions: FailThreshold consecutive failures mark
// a replica out, RecoverThreshold consecutive successes re-enroll it, and
// a fingerprint that differs from the fleet's refuses enrollment
// outright. The fleet fingerprint is pinned by the first replica to
// answer healthy (or by Options.ExpectFingerprint). The ring is rebuilt
// if membership changed.
func (rt *Router) CheckNow(ctx context.Context) {
	rt.met.HealthChecks.Add(1)
	rt.mu.RLock()
	reps := append([]*replica(nil), rt.replicas...)
	rt.mu.RUnlock()

	type probe struct {
		h   api.Health
		err error
	}
	results := make([]probe, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			results[i].h, results[i].err = rt.fetchHealthz(ctx, url)
		}(i, rep.url)
	}
	wg.Wait()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	changed := false
	for i, rep := range reps {
		if rt.applyProbe(rep, results[i].h, results[i].err) {
			changed = true
		}
	}
	// With lag exclusion on, replica sequence numbers move without any
	// enrollment transition, so the ring membership must be recomputed on
	// every sweep, not only on state changes.
	if changed || rt.ring == nil || rt.opts.MaxGenerationLag > 0 {
		rt.rebuildRingLocked()
	}
}

// applyProbe folds one health observation into a replica's state,
// reporting whether its enrollment changed. Caller holds rt.mu.
func (rt *Router) applyProbe(rep *replica, h api.Health, err error) bool {
	wasHealthy := rep.state == stateHealthy
	if err != nil {
		rep.consecOK = 0
		rep.consecFails++
		rep.lastErr = err.Error()
		if wasHealthy && rep.consecFails >= rt.opts.FailThreshold {
			rep.state = stateDown
			rt.met.Excluded.Add(1)
			return true
		}
		if rep.state == stateUnknown && rep.consecFails >= rt.opts.FailThreshold {
			rep.state = stateDown
		}
		return false
	}

	rep.consecFails = 0
	rep.lastErr = ""
	rep.fingerprint = h.Fingerprint
	rep.nodes = h.Nodes
	rep.arcs = h.Arcs
	rep.hasIndex = h.Index != nil
	if h.Index != nil {
		rep.indexGen = h.Index.Generation
	}
	rep.hasDyn = h.Dynamic != nil
	if h.Dynamic != nil {
		rep.dynSeq = h.Dynamic.Seq
		rep.dynGen = h.Dynamic.Generation
		rep.dynPending = h.Dynamic.Pending
	}
	// The top-level fingerprint folds every tenant's, so the top-level
	// comparison below still decides enrollment; the per-tenant identities
	// name which graph diverged.
	rep.graphs = make(map[string]api.GraphIdentity, len(h.Graphs))
	for name, g := range h.Graphs {
		rep.graphs[name] = api.GraphIdentity{Nodes: g.Nodes, Arcs: g.Arcs, Fingerprint: g.Fingerprint}
	}

	// Enrollment gate: the first healthy replica pins the fleet's dataset
	// identity — the top-level fingerprint (which on a multi-graph replica
	// folds every tenant's identity) plus the per-tenant block; everyone
	// after must match it exactly, tenant by tenant.
	if rt.expect == "" {
		rt.expect = h.Fingerprint
		rt.nodes = h.Nodes
		rt.fleetGraphs = rep.graphs
	}
	if h.Fingerprint != rt.expect {
		rep.consecOK = 0
		rep.lastErr = rt.mismatchReason(h.Fingerprint, rep.graphs)
		if rep.state != stateMismatched {
			rep.state = stateMismatched
			rt.met.Mismatched.Add(1)
			return wasHealthy
		}
		return false
	}
	if rep.state == stateMismatched {
		// The replica was redeployed onto the right dataset: treat the
		// match as a fresh recovery streak.
		rep.state = stateDown
	}

	rep.consecOK++
	if rep.state == stateHealthy {
		return false
	}
	// A replica that was never enrolled joins on its first clean answer;
	// one that was marked out must prove RecoverThreshold consecutive
	// successes before taking traffic again.
	need := rt.opts.RecoverThreshold
	if rep.state == stateUnknown {
		need = 1
	}
	if rep.consecOK >= need {
		rep.state = stateHealthy
		return true
	}
	return false
}

// mismatchReason explains a fingerprint mismatch. When both the fleet and
// the probed replica expose per-tenant identities, the reason names the
// exact graph that diverged (or is missing) — on a multi-graph fleet the
// folded top-level fingerprint alone cannot tell the operator which tenant
// to redeploy. Caller holds rt.mu.
func (rt *Router) mismatchReason(fingerprint string, graphs map[string]api.GraphIdentity) string {
	if len(rt.fleetGraphs) > 0 && len(graphs) > 0 {
		for name, want := range rt.fleetGraphs {
			got, ok := graphs[name]
			if !ok {
				return fmt.Sprintf("graph %q missing (fleet serves it with fingerprint %s)", name, want.Fingerprint)
			}
			if got.Fingerprint != want.Fingerprint {
				return fmt.Sprintf("graph %q fingerprint %s does not match fleet %s",
					name, got.Fingerprint, want.Fingerprint)
			}
		}
		for name := range graphs {
			if _, ok := rt.fleetGraphs[name]; !ok {
				return fmt.Sprintf("graph %q not served by the fleet", name)
			}
		}
	}
	return fmt.Sprintf("dataset fingerprint %s does not match fleet %s", fingerprint, rt.expect)
}

// rebuildRingLocked rebuilds the consistent-hash ring over the healthy
// replicas. With MaxGenerationLag set, a healthy mutable replica whose
// applied mutation sequence trails the fleet's most advanced replica by
// more than the allowance is held out of the read ring — it would serve
// answers missing recent writes — but keeps its healthy enrollment so
// write fan-outs still reach it and let it catch up. Caller holds rt.mu.
func (rt *Router) rebuildRingLocked() {
	var maxSeq int64
	if rt.opts.MaxGenerationLag > 0 {
		for _, rep := range rt.replicas {
			if rep.state == stateHealthy && rep.hasDyn && rep.dynSeq > maxSeq {
				maxSeq = rep.dynSeq
			}
		}
	}
	var healthy []*replica
	for _, rep := range rt.replicas {
		rep.lagExcluded = false
		if rep.state != stateHealthy {
			continue
		}
		if rt.opts.MaxGenerationLag > 0 && rep.hasDyn &&
			maxSeq-rep.dynSeq > int64(rt.opts.MaxGenerationLag) {
			rep.lagExcluded = true
			rt.met.LagExclusions.Add(1)
			continue
		}
		healthy = append(healthy, rep)
	}
	rt.ring = buildRing(healthy, rt.opts.Vnodes)
}

func (rt *Router) fetchHealthz(ctx context.Context, url string) (api.Health, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return api.Health{}, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return api.Health{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.Health{}, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return api.Health{}, fmt.Errorf("healthz decode: %w", err)
	}
	if h.Status != "ok" {
		return api.Health{}, fmt.Errorf("healthz status %q", h.Status)
	}
	if h.Fingerprint == "" {
		return api.Health{}, fmt.Errorf("healthz carries no dataset fingerprint (old tcserve?)")
	}
	return h, nil
}

// Start launches the background health loop at Options.HealthInterval.
// It is a no-op when the interval is zero (tests drive CheckNow
// directly). Close stops the loop.
func (rt *Router) Start() {
	if rt.opts.HealthInterval <= 0 {
		return
	}
	rt.loopWG.Add(1)
	go func() {
		defer rt.loopWG.Done()
		t := time.NewTicker(rt.opts.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.CheckNow(context.Background())
			}
		}
	}()
}

// Close stops the health loop. Safe to call multiple times.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.loopWG.Wait()
}
