package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tcstudy/internal/api"
)

// handleArc fans one mutation batch out to EVERY enrolled replica — reads
// scatter for throughput, writes replicate for consistency. The batch
// succeeds only when all replicas acknowledge it with matching post-batch
// fingerprints; any missing ack fails the whole batch with a retryable
// error (mutations are idempotent, so the client resends the batch until
// every replica converges). Batches are serialized through writeMu so all
// replicas see the same mutation order. Retries stay on the same replica:
// a write is not fungible across the fleet the way a read is.
func (rt *Router) handleArc(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.met.ArcWrites.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxArcBody))
	if err != nil {
		rt.badRequest(w, "read mutation batch: %v", err)
		return
	}

	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()

	rt.mu.RLock()
	targets := make([]*replica, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		if rep.state == stateHealthy {
			targets = append(targets, rep)
		}
	}
	rt.mu.RUnlock()
	if len(targets) == 0 {
		rt.noReplicas(w)
		return
	}

	outcomes := make([]shardOutcome, len(targets))
	var wg sync.WaitGroup
	for i, rep := range targets {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			outcomes[i] = rt.doShard(r.Context(), []*replica{rep}, http.MethodPost, "/v1/arc", body)
		}(i, rep)
	}
	wg.Wait()

	resp := api.RouterArcResponse{Replicas: len(targets)}
	acks := make([]api.ArcResponse, len(targets))
	okCount, failedIdx := 0, -1
	for i, out := range outcomes {
		resp.Retries += out.retries
		if out.err != nil || out.status != http.StatusOK {
			if failedIdx < 0 {
				failedIdx = i
			}
			continue
		}
		if err := json.Unmarshal(out.body, &acks[i]); err != nil {
			rt.met.Errors.Add(1)
			rt.met.WriteFailures.Add(1)
			api.WriteJSON(w, http.StatusBadGateway, api.Error{
				Message: fmt.Sprintf("bad write ack from %s: %v", targets[i].url, err),
			})
			return
		}
		okCount++
	}
	if failedIdx >= 0 {
		rt.met.WriteFailures.Add(1)
		out := outcomes[failedIdx]
		// Every replica rejected the batch the same deterministic way (a
		// validation 4xx) — relay the replica's own error. Anything else is
		// a partial write: some replicas may hold the batch, so report it
		// retryable and let idempotent resends converge the fleet.
		if okCount == 0 && out.err == nil && out.status >= 400 && out.status < 500 {
			rt.failShard(w, out)
			return
		}
		rt.met.Errors.Add(1)
		// The acked replicas hold the batch; pin the fleet identity to them
		// so the next health sweep keeps the up-to-date majority serving and
		// excludes only the replica that missed the write. Skip the re-pin if
		// the acks themselves disagree — that is divergence, not lag.
		rt.adoptAcks(targets, acks)
		detail := fmt.Sprintf("replica %s: status %d", targets[failedIdx].url, out.status)
		if out.err != nil {
			detail = fmt.Sprintf("replica %s: %v", targets[failedIdx].url, out.err)
		}
		api.WriteJSON(w, http.StatusBadGateway, api.Error{
			Message: fmt.Sprintf("write acknowledged by %d/%d replicas (%s); resend the batch",
				okCount, len(targets), detail),
			Transient: true,
		})
		return
	}

	// All replicas acked: their post-batch fingerprints must agree, or the
	// fleet has diverged and routing reads to it would be a lottery.
	fp := acks[0].Fingerprint
	for i, ack := range acks {
		if ack.Fingerprint != fp {
			rt.met.Errors.Add(1)
			rt.met.WriteFailures.Add(1)
			api.WriteJSON(w, http.StatusBadGateway, api.Error{
				Message: fmt.Sprintf("fleet diverged after write: %s reports fingerprint %s, %s reports %s",
					targets[0].url, fp, targets[i].url, ack.Fingerprint),
			})
			return
		}
		if ack.Seq > resp.Seq {
			resp.Seq = ack.Seq
		}
		resp.Rebuilding = resp.Rebuilding || ack.Rebuilding
	}
	resp.Applied, resp.Noops, resp.Merged = acks[0].Applied, acks[0].Noops, acks[0].Merged
	resp.Fingerprint = fp

	// The fleet's dataset identity just changed in lockstep; refresh the
	// pinned fingerprint and each replica's write position so the next
	// health sweep does not mistake the mutated fleet for a mismatch.
	rt.adoptAcks(targets, acks)

	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	rt.met.ObserveLatency(time.Since(start))
	api.WriteJSON(w, http.StatusOK, resp)
}

// adoptAcks re-pins the fleet fingerprint and per-replica write positions
// from the replicas that acknowledged a batch. Acks are adopted only when
// every acking replica reports the same fingerprint; an empty ack slot
// (the replica's sub-request failed) is skipped.
func (rt *Router) adoptAcks(targets []*replica, acks []api.ArcResponse) {
	fp := ""
	for _, ack := range acks {
		if ack.Fingerprint == "" {
			continue
		}
		if fp == "" {
			fp = ack.Fingerprint
		} else if ack.Fingerprint != fp {
			return // acked replicas disagree: nothing safe to pin
		}
	}
	if fp == "" {
		return
	}
	rt.mu.Lock()
	rt.expect = fp
	for i, rep := range targets {
		if acks[i].Fingerprint == "" {
			continue
		}
		rep.fingerprint = fp
		rep.hasDyn = true
		rep.dynSeq = acks[i].Seq
		rep.dynPending = acks[i].Pending
	}
	if rt.opts.MaxGenerationLag > 0 {
		rt.rebuildRingLocked()
	}
	rt.mu.Unlock()
}
