package core

import "tcstudy/internal/buffer"

// Session runs a sequence of queries over one database through a shared,
// warm buffer pool. The paper's experiments are deliberately cold — every
// measurement starts from an empty pool — but a library user issuing many
// reachability queries benefits from keeping the relation's hot pages
// resident. Each query still gets its own full metric record (attributed
// by counter deltas, so the shared pool does not blur accounting).
//
// A session is not safe for concurrent use. A query that fails with a
// storage error does not poison the session: the pool is reset (dropping
// any pins and dirty pages the aborted run left behind — they belong to
// its temporary files), the temporaries are released, and the next query
// runs from a cold pool against the intact database. The only cost of a
// fault is the lost warmth.
type Session struct {
	db    *Database
	cfg   Config
	temps *tempTracker // the session's pool allocates through it, so it owns exactly this session's temp files
	pool  *buffer.Pool
	// faults counts queries that failed with a storage error and were
	// recovered from (for tests and operational visibility).
	faults int64
}

// NewSession validates the configuration and opens a session.
func NewSession(db *Database, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	temps, pool, err := newTrackedPool(db, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, cfg: cfg, temps: temps, pool: pool}, nil
}

// Pool exposes the session's buffer pool (for tests and instrumentation).
func (s *Session) Pool() *buffer.Pool { return s.pool }

// Faults reports how many queries failed with an error and were recovered
// from.
func (s *Session) Faults() int64 { return s.faults }

// Run executes one query within the session. A request the engine refuses
// (*InvalidInputError) never reaches the pool: it is not a fault and costs
// the session nothing. The session's pool sits on the base store, so a
// DAG-only strategy on a cyclic database, which runs on the condensation's
// own store, runs cold as under Run and leaves the pool as it was.
func (s *Session) Run(alg Algorithm, q Query) (*Result, error) {
	r, err := Request{Alg: alg, Query: q, Cfg: s.cfg}.Validate(s.db)
	if err != nil {
		return nil, err
	}
	st := strategyOf(alg)
	if st.needsDAG && !s.db.acyclic {
		return s.db.cond.run(r)
	}
	// Release this query's temporary files on the way out: drop their
	// buffered pages, then their storage. Only files created through the
	// session's tracker are touched — on a database that is also serving Run
	// or RunConcurrent traffic, other queries' live temp files interleave
	// with them by ID.
	defer func() {
		for _, id := range s.temps.owned {
			s.pool.DiscardFile(id)
		}
		s.temps.release()
	}()
	e, err := execute(s.db, s.pool, r, st.run)
	if err != nil {
		// The aborted run can leave pages pinned and dirty frames holding
		// its temporaries. Drop every frame — the base relations are
		// read-only during queries, so nothing durable is lost. The session
		// stays usable; the next query simply starts cold.
		s.faults++
		s.pool.Reset()
		return nil, err
	}
	return e.result(), nil
}
