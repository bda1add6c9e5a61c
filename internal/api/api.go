// Package api is the wire contract of the serving tier: the JSON bodies
// tcserve and tcrouter exchange with their clients and with each other.
// Every request and reply body is declared here once; internal/server
// produces them, internal/router forwards, merges and re-serves them, and
// cmd/tcload consumes them. Field order is wire order — several replies
// are pinned byte for byte by testdata/*.golden — so the structs that
// replaced alphabetically-marshalled maps keep their fields alphabetical.
//
// POST /v1/arc takes a dynamic.Batch; GET /debug/traces serves
// server.TraceEntry values and is tcserve-only.
package api

import (
	"encoding/json"
	"net/http"
)

// DefaultGraph names the tenant of a single-graph server, and the tenant
// requests without a graph selector are counted under.
const DefaultGraph = "default"

// MaxArcBody bounds a POST /v1/arc request body on both tiers. Batches are
// also capped in op count by the dynamic service; this guards the decoder.
const MaxArcBody = 1 << 20

// WriteJSON emits one JSON reply.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Error is the body of every non-2xx reply. Transient failures — a storage
// fault under the engine, a replica behind on writes, an empty or
// partially-acknowledging fleet — carry the retry hints.
type Error struct {
	Message      string `json:"error"`
	Retry        bool   `json:"retry,omitempty"`
	RetryAfterMS int    `json:"retry_after_ms,omitempty"`
	Status       string `json:"status,omitempty"` // "degraded": /healthz could not fingerprint a dataset
	Transient    bool   `json:"transient,omitempty"`
}

// QueryRequest is the body of POST /v1/query. Unset configuration fields
// inherit the server defaults. The router rewrites only Sources when it
// scatters; every other field is forwarded untouched.
type QueryRequest struct {
	Algorithm string  `json:"algorithm"`
	Sources   []int32 `json:"sources"` // empty = full closure
	// Graph names the tenant on a multi-graph server (the graph= query
	// parameter takes precedence; empty selects the default tenant).
	Graph string `json:"graph,omitempty"`
	// Engine configuration overrides.
	BufferPages int     `json:"buffer_pages,omitempty"`
	PagePolicy  string  `json:"page_policy,omitempty"`
	ListPolicy  string  `json:"list_policy,omitempty"`
	ILIMIT      float64 `json:"ilimit,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeSuccessors adds the full successor sets to the response
	// (successor counts are always included).
	IncludeSuccessors bool `json:"include_successors,omitempty"`
}

// QueryResponse is the reply of POST /v1/query on both tiers. A router
// reply is the same shape gathered over its shards: Cached means every
// shard answered from its cache, Deduplicated that any shard coalesced in
// flight, and Shards, Retries and Hedges account for the scatter.
type QueryResponse struct {
	Algorithm       string            `json:"algorithm"`
	Graph           string            `json:"graph,omitempty"` // named by multi-graph servers only
	Sources         []int32           `json:"sources,omitempty"`
	Cached          bool              `json:"cached"`
	Deduplicated    bool              `json:"deduplicated"`
	ElapsedMS       float64           `json:"elapsed_ms"`
	Shards          int               `json:"shards,omitempty"`
	Retries         int               `json:"retries,omitempty"`
	Hedges          int               `json:"hedges,omitempty"`
	Metrics         Record            `json:"metrics"`
	SuccessorCounts map[int32]int     `json:"successor_counts"`
	Successors      map[int32][]int32 `json:"successors,omitempty"`
}

// ReachResponse is the reply of GET /v1/reach.
type ReachResponse struct {
	Src       int32   `json:"src"`
	Dst       int32   `json:"dst"`
	Graph     string  `json:"graph,omitempty"`
	Reachable bool    `json:"reachable"`
	Cached    bool    `json:"cached"`
	IndexHit  bool    `json:"index_hit,omitempty"`
	Overlay   bool    `json:"overlay,omitempty"` // answered by the delta overlay mid-rebuild
	Seq       int64   `json:"seq,omitempty"`     // mutation sequence the answer reflects
	ElapsedMS float64 `json:"elapsed_ms"`
	PageIO    int64   `json:"page_io"` // 0 on a cache hit or index hit
}

// ArcResponse is tcserve's reply of POST /v1/arc: where the batch landed in
// the mutation log and what it did to the index.
type ArcResponse struct {
	Seq         int64   `json:"seq"`
	Applied     int     `json:"applied"`
	Noops       int     `json:"noops"`
	Merged      int     `json:"merged_components,omitempty"`
	Rebuilding  bool    `json:"rebuilding"`
	Generation  int64   `json:"generation"`
	Pending     int     `json:"pending"`
	Fingerprint string  `json:"fingerprint"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// RouterArcResponse is tcrouter's gathered reply of POST /v1/arc: the
// replicas' (agreeing) batch outcome plus the fan-out accounting.
type RouterArcResponse struct {
	Seq         int64   `json:"seq"`
	Applied     int     `json:"applied"`
	Noops       int     `json:"noops"`
	Merged      int     `json:"merged_components,omitempty"`
	Rebuilding  bool    `json:"rebuilding"` // any replica still folding the batch in
	Fingerprint string  `json:"fingerprint"`
	Replicas    int     `json:"replicas"` // replicas that acknowledged the batch
	Retries     int     `json:"retries,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// PlanResponse is the reply of GET /v1/plan.
type PlanResponse struct {
	Profile PlanProfile `json:"profile"`
	Graph   string      `json:"graph,omitempty"`
	// Mode is "static" (pure cost-model ranking) or "adaptive" (cost model
	// blended with the tenant's decayed observation store).
	Mode      string         `json:"mode,omitempty"`
	Sources   int            `json:"sources"`
	BufferM   int            `json:"buffer_pages"`
	Estimates []PlanEstimate `json:"estimates"` // cheapest first
	// Planner is the tenant's rolling decision record (adaptive mode).
	Planner *PlanStats `json:"planner,omitempty"`
}

// PlanProfile is the statistical profile of the graph being planned for.
type PlanProfile struct {
	Nodes     int     `json:"nodes"`
	Arcs      int     `json:"arcs"`
	H         float64 `json:"h"`
	W         float64 `json:"w"`
	AvgDegree float64 `json:"avg_degree"`
	Reach     float64 `json:"reach"`
	CondNodes int     `json:"cond_nodes"`
	CondArcs  int     `json:"cond_arcs"`
	Density   float64 `json:"cond_density"`
}

// PlanEstimate is one algorithm's predicted cost.
type PlanEstimate struct {
	Algorithm string  `json:"algorithm"`
	IO        float64 `json:"io"`
	Why       string  `json:"why"`
	// Adaptive-mode evidence (omitted in static mode and for cold cells).
	BlendedIO         float64 `json:"blended_io,omitempty"`
	Samples           float64 `json:"samples,omitempty"`
	ObservedIO        float64 `json:"observed_io,omitempty"`
	ObservedLatencyMS float64 `json:"observed_latency_ms,omitempty"`
	Explored          bool    `json:"explored,omitempty"`
}

// PlanStats is the planner's rolling counters.
type PlanStats struct {
	Decisions    int64   `json:"decisions"`
	Hits         int64   `json:"hits"`
	HitRate      float64 `json:"hit_rate"`
	Explorations int64   `json:"explorations"`
	Observations int64   `json:"observations"`
}

// Health is tcserve's GET /healthz reply: liveness plus the dataset
// identity a routing tier needs to decide whether this replica may join a
// fleet. The top-level shape fields describe the default tenant; on a
// multi-graph server Fingerprint folds every tenant's identity and Graph
// names the default tenant. Graphs carries every tenant, so fleets agree
// tenant by tenant.
type Health struct {
	Arcs          int                    `json:"arcs"`
	Dynamic       *DynamicHealth         `json:"dynamic,omitempty"`
	Fingerprint   string                 `json:"fingerprint"`
	Graph         string                 `json:"graph,omitempty"`
	Graphs        map[string]GraphHealth `json:"graphs"`
	Index         *IndexHealth           `json:"index,omitempty"`
	Nodes         int                    `json:"nodes"`
	Status        string                 `json:"status"`
	UptimeSeconds float64                `json:"uptime_seconds"`
}

// GraphHealth is one tenant's block of Health: graph shape, dataset
// identity (the CRC-64 of the base relation, superseded by the dynamic
// service's live fingerprint), and the index/dynamic state when present.
type GraphHealth struct {
	Arcs        int            `json:"arcs"`
	Dynamic     *DynamicHealth `json:"dynamic,omitempty"`
	Fingerprint string         `json:"fingerprint"`
	Index       *IndexHealth   `json:"index,omitempty"`
	Nodes       int            `json:"nodes"`
}

// IndexHealth describes the reachability index serving a tenant's reads.
type IndexHealth struct {
	Arcs       int    `json:"arcs"`
	Builder    string `json:"builder"`
	Chains     int    `json:"chains"`
	Generation int64  `json:"generation"`
	Nodes      int    `json:"nodes"`
	Stale      bool   `json:"stale"`
}

// DynamicHealth is the mutation-log position of a mutable tenant.
type DynamicHealth struct {
	Generation int64 `json:"generation"`
	Mutations  int64 `json:"mutations"`
	Pending    int   `json:"pending"`
	Rebuilding bool  `json:"rebuilding"`
	Rebuilds   int64 `json:"rebuilds"`
	Seq        int64 `json:"seq"`
}

// RouterHealth is tcrouter's GET /healthz reply: the fleet fingerprint, how
// many replicas are enrolled, and each replica's state. Nodes and Graphs
// decode into Health too, so a load generator can point at a router and a
// replica interchangeably.
type RouterHealth struct {
	Fingerprint     string                   `json:"fingerprint"`
	Graphs          map[string]GraphIdentity `json:"graphs,omitempty"`
	HealthyReplicas int                      `json:"healthy_replicas"`
	Nodes           int                      `json:"nodes"`
	Replicas        []ReplicaStatus          `json:"replicas"`
	Status          string                   `json:"status"`
}

// GraphIdentity is one named graph's dataset identity as the fleet pinned
// it at enrollment.
type GraphIdentity struct {
	Nodes       int    `json:"nodes"`
	Arcs        int    `json:"arcs"`
	Fingerprint string `json:"fingerprint"`
}

// ReplicaStatus is one replica's entry in RouterHealth.
type ReplicaStatus struct {
	URL                 string            `json:"url"`
	State               string            `json:"state"`
	Fingerprint         string            `json:"fingerprint,omitempty"`
	Nodes               int               `json:"nodes,omitempty"`
	Arcs                int               `json:"arcs,omitempty"`
	Graphs              map[string]string `json:"graphs,omitempty"` // tenant -> fingerprint
	IndexGeneration     int64             `json:"index_generation,omitempty"`
	Seq                 int64             `json:"seq,omitempty"`
	Pending             int               `json:"pending,omitempty"`
	Lagging             bool              `json:"lagging,omitempty"`
	ConsecutiveFailures int               `json:"consecutive_failures,omitempty"`
	LastError           string            `json:"last_error,omitempty"`
}

// Snapshot is tcserve's GET /metrics?format=json reply.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QPS           float64 `json:"qps"` // completed requests / uptime

	Queries   int64 `json:"queries"`
	Reaches   int64 `json:"reaches"`
	Plans     int64 `json:"plans"`
	ArcWrites int64 `json:"arc_writes,omitempty"`

	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	IndexHits        int64   `json:"index_hits"`
	OverlayReads     int64   `json:"overlay_reads,omitempty"`
	MutationsApplied int64   `json:"mutations_applied,omitempty"`
	EngineFallbacks  int64   `json:"engine_fallbacks"`
	Deduplicated     int64   `json:"deduplicated"`
	Rejected         int64   `json:"rejected"`
	Timeouts         int64   `json:"timeouts"`
	StorageFaults    int64   `json:"storage_faults"`
	Errors           int64   `json:"errors"`
	SlowQueries      int64   `json:"slow_queries"`

	PagesServed  int64 `json:"pages_served"`
	TuplesServed int64 `json:"tuples_served"`
	InFlight     int64 `json:"in_flight"`

	LatencyMS LatencyQuantiles `json:"latency_ms"`
}

// LatencyQuantiles reports quantiles over the recent-latency window, in
// milliseconds.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}
