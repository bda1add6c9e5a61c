package planner

import (
	"math/rand"
	"sync"
	"time"

	"tcstudy/internal/core"
)

// Adaptive closes the loop the static cost models leave open: the models
// rank candidates from cheap statistics, but the paper's own Fig. 8 shows
// no algorithm wins everywhere, and a serving process sees ground truth on
// every executed query — the same phase deltas that populate the
// tc_engine_phase_seconds histograms. The adaptive planner folds those
// observations into an exponentially-decayed per-(query shape, algorithm)
// store and blends them with the static estimate: a cold store ranks
// exactly like the static model, and evidence takes over smoothly as
// observations accumulate. An epsilon-greedy exploration floor keeps cold
// algorithms sampled so the store cannot starve a candidate that would win
// under the current workload.

// Config tunes the adaptive planner. Zero values select the defaults.
type Config struct {
	// Decay is the multiplicative weight applied to the existing
	// observation mass each time a new observation for the same
	// (shape, algorithm) cell arrives; smaller values forget faster
	// (default 0.9, i.e. the last ~10 observations dominate).
	Decay float64
	// Epsilon is the exploration probability: with probability Epsilon a
	// Rank call promotes the least-observed candidate to the front so cold
	// algorithms keep getting sampled (default 0 — exploration off, which
	// keeps rankings deterministic unless explicitly enabled).
	Epsilon float64
	// Confidence is the observation mass at which the blend weights
	// evidence and model equally; below it the static estimate dominates
	// (default 4 observations).
	Confidence float64
	// LatencyWeight converts observed latency into page-I/O-equivalent
	// cost units so the blended score stays commensurate with the static
	// estimates. The default, 400 pages/second, is the sequential page
	// rate the engine's EstimatedIOTime model assumes (~2.5ms per page).
	LatencyWeight float64
	// Seed feeds the exploration RNG (deterministic for tests).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Decay == 0 {
		c.Decay = 0.9
	}
	if c.Confidence == 0 {
		c.Confidence = 4
	}
	if c.LatencyWeight == 0 {
		c.LatencyWeight = 400
	}
	return c
}

// shape buckets queries whose observations are comparable: the cost of a
// closure over all nodes says little about a single-source probe, so
// observations are pooled per bucket rather than globally.
type shape int

const (
	shapeFull   shape = iota // full closure (no sources)
	shapeSingle              // exactly one source
	shapeFew                 // 2..16 sources
	shapeMany                // more than 16 sources
)

func shapeOf(numSources int) shape {
	switch {
	case numSources == 0:
		return shapeFull
	case numSources == 1:
		return shapeSingle
	case numSources <= 16:
		return shapeFew
	default:
		return shapeMany
	}
}

func (s shape) String() string {
	switch s {
	case shapeFull:
		return "full"
	case shapeSingle:
		return "single"
	case shapeFew:
		return "few"
	default:
		return "many"
	}
}

// obsCell is one (shape, algorithm) cell of the observation store: a
// decayed sample mass and decayed means of latency and page I/O.
type obsCell struct {
	weight  float64 // decayed observation mass
	latency float64 // decayed mean latency, seconds
	pageIO  float64 // decayed mean page I/O
}

type obsKey struct {
	shape shape
	alg   core.Algorithm
}

// Adaptive is an online planner: static model plus observation store.
// All methods are safe for concurrent use.
type Adaptive struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
	obs map[obsKey]*obsCell

	decisions    int64 // observed executions scored against the evidence
	hits         int64 // ...where the blended winner was evidence-fastest
	explorations int64 // Rank calls that promoted a cold candidate
	observations int64 // total observations folded into the store
}

// NewAdaptive builds an empty adaptive planner.
func NewAdaptive(cfg Config) *Adaptive {
	cfg = cfg.withDefaults()
	return &Adaptive{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		obs: make(map[obsKey]*obsCell),
	}
}

// Decision is one ranked candidate: the static estimate plus the evidence
// that produced its blended score.
type Decision struct {
	Estimate
	// Blended is the score the ranking sorts by: the static estimate and
	// the observed cost, weighted by how much evidence the store holds.
	// With zero observations it equals the static estimate exactly.
	Blended float64
	// Samples is the decayed observation mass behind the blend (0 = cold).
	Samples float64
	// ObsLatency and ObsIO are the decayed means of the cell (zero when
	// cold).
	ObsLatency time.Duration
	ObsIO      float64
	// Explored marks the candidate an epsilon-greedy promotion moved to
	// the front ahead of its blended rank.
	Explored bool
}

// Stats is the planner's rolling decision record.
type Stats struct {
	// Decisions counts executed queries whose algorithm choice was scored
	// against the observed evidence; Hits counts those where the blended
	// winner matched the evidence-fastest algorithm for the query's shape.
	// HitRate is Hits/Decisions (0 before any decision).
	Decisions    int64
	Hits         int64
	HitRate      float64
	Explorations int64
	Observations int64
}

// blendLocked computes the blended score and evidence fields for one
// static estimate. Caller holds a.mu.
func (a *Adaptive) blendLocked(sh shape, e Estimate) Decision {
	d := Decision{Estimate: e, Blended: e.IO}
	cell, ok := a.obs[obsKey{sh, e.Alg}]
	if !ok || cell.weight <= 0 {
		return d
	}
	obsCost := cell.pageIO + cell.latency*a.cfg.LatencyWeight
	w := cell.weight / (cell.weight + a.cfg.Confidence)
	d.Blended = (1-w)*e.IO + w*obsCost
	d.Samples = cell.weight
	d.ObsLatency = time.Duration(cell.latency * float64(time.Second))
	d.ObsIO = cell.pageIO
	return d
}

// rankLocked produces the blended ranking without exploration. The sort is
// stable over the static order, so with zero observations (every blended
// score equal to its static estimate) the result is exactly the static
// ranking. Caller holds a.mu.
func (a *Adaptive) rankLocked(p Profile, numSources, bufferPages int) []Decision {
	sh := shapeOf(numSources)
	ests := Estimates(p, numSources, bufferPages)
	ds := make([]Decision, len(ests))
	for i, e := range ests {
		ds[i] = a.blendLocked(sh, e)
	}
	// Insertion sort, stable on Blended: candidate lists are tiny (≤8).
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Blended < ds[j-1].Blended; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds
}

// Rank returns the blended ranking, cheapest first. With probability
// Epsilon the least-observed candidate is promoted to the front (marked
// Explored) so cold algorithms keep getting sampled.
func (a *Adaptive) Rank(p Profile, numSources, bufferPages int) []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	ds := a.rankLocked(p, numSources, bufferPages)
	if a.cfg.Epsilon > 0 && len(ds) > 1 && a.rng.Float64() < a.cfg.Epsilon {
		cold := 0
		for i := 1; i < len(ds); i++ {
			if ds[i].Samples < ds[cold].Samples {
				cold = i
			}
		}
		if cold != 0 {
			pick := ds[cold]
			copy(ds[1:cold+1], ds[:cold])
			pick.Explored = true
			ds[0] = pick
			a.explorations++
		}
	}
	return ds
}

// Observe folds one executed query into the store: the algorithm that ran,
// the query shape it ran under, and the measured latency and page I/O —
// the same phase deltas the tc_engine_phase_seconds histograms record. It
// also scores the planner: the blended winner for this shape is compared
// against the evidence-fastest observed algorithm, advancing the
// decision/hit counters behind the rolling hit rate.
func (a *Adaptive) Observe(p Profile, numSources, bufferPages int, alg core.Algorithm, latency time.Duration, pageIO int64) {
	sh := shapeOf(numSources)
	a.mu.Lock()
	defer a.mu.Unlock()
	k := obsKey{sh, alg}
	cell, ok := a.obs[k]
	if !ok {
		cell = &obsCell{}
		a.obs[k] = cell
	}
	// Decayed running mean: old mass shrinks by Decay, the new sample
	// enters at weight 1.
	w := cell.weight * a.cfg.Decay
	cell.latency = (cell.latency*w + latency.Seconds()) / (w + 1)
	cell.pageIO = (cell.pageIO*w + float64(pageIO)) / (w + 1)
	cell.weight = w + 1
	a.observations++

	// Score the decision the planner would make right now for this shape
	// against the cheapest observed evidence. Greedy top only — an
	// exploration promotion is deliberately not charged as a miss.
	ds := a.rankLocked(p, numSources, bufferPages)
	pick := ds[0].Alg
	best := alg
	bestCost := 0.0
	first := true
	for key, c := range a.obs {
		if key.shape != sh || c.weight <= 0 {
			continue
		}
		cost := c.pageIO + c.latency*a.cfg.LatencyWeight
		if first || cost < bestCost {
			best, bestCost, first = key.alg, cost, false
		}
	}
	a.decisions++
	if pick == best {
		a.hits++
	}
}

// Stats returns the rolling counters.
func (a *Adaptive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Stats{
		Decisions:    a.decisions,
		Hits:         a.hits,
		Explorations: a.explorations,
		Observations: a.observations,
	}
	if s.Decisions > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Decisions)
	}
	return s
}
