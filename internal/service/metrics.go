package service

import (
	"sync/atomic"
	"time"
)

// metrics holds the server's monotonic counters. Gauges (queue depth, jobs
// by state, cache entries, store bytes) are computed at snapshot time from
// live state.
type metrics struct {
	jobsSubmitted atomic.Int64 // accepted submissions (incl. cache hits and dedups)
	buildsRun     atomic.Int64 // builds actually dispatched to a worker
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
	cacheHits     atomic.Int64 // submissions answered from the in-memory LRU
	cacheMisses   atomic.Int64 // submissions that had to queue a build
	dedups        atomic.Int64 // submissions coalesced onto an in-flight job
	dijkstras     atomic.Int64 // total shortest-path runs across completed builds
	specBatches   atomic.Int64 // same-weight edge batches speculated on (parallel builds)
	specQueries   atomic.Int64 // speculative oracle queries issued against snapshots
	specHits      atomic.Int64 // batch edges committed straight from speculation
	specWaste     atomic.Int64 // speculative answers invalidated and re-speculated
	specRounds    atomic.Int64 // parallel re-speculation rounds over invalidated edges
	specRequeries atomic.Int64 // invalidated edges resolved by a single live re-query
	jobsEvicted   atomic.Int64 // terminal jobs removed by the retention janitor
	panics        atomic.Int64 // build panics recovered into failed jobs
	jobsDeadline  atomic.Int64 // jobs that missed their DeadlineMs

	// Graph-session counters (session.go).
	sessionsCreated       atomic.Int64 // sessions created
	sessionsClosed        atomic.Int64 // sessions closed by DELETE or server Close
	sessionsEvicted       atomic.Int64 // idle sessions closed by the retention janitor
	sessionsSeeded        atomic.Int64 // sessions whose engine seeded from the result cache
	sessionDeltaBatches   atomic.Int64 // applied delta batches
	sessionDeltaOps       atomic.Int64 // individual delta operations applied
	sessionOracleQueries  atomic.Int64 // live oracle queries during suffix repairs
	sessionShortcuts      atomic.Int64 // suffix decisions carried over without a query
	sessionCachePuts      atomic.Int64 // session results published into the cache tiers
	sessionOracleReuses   atomic.Int64 // suffix repairs that rewound the retained prefix graph + oracle
	sessionOracleRebuilds atomic.Int64 // suffix repairs that built them from scratch

	buildsInFlight atomic.Int64 // builds currently occupying a worker slot
	maxInFlight    atomic.Int64 // high-water mark of buildsInFlight
}

// buildStarted records a worker slot going busy and maintains the
// concurrency high-water mark.
func (m *metrics) buildStarted() {
	n := m.buildsInFlight.Add(1)
	for {
		hw := m.maxInFlight.Load()
		if n <= hw || m.maxInFlight.CompareAndSwap(hw, n) {
			return
		}
	}
}

func (m *metrics) buildFinished() { m.buildsInFlight.Add(-1) }

// MetricsSnapshot is the GET /metrics response.
type MetricsSnapshot struct {
	// Version is the server's build stamp (Config.Version); UptimeSeconds
	// is time since New.
	Version       string  `json:"version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsSubmitted int64   `json:"jobs_submitted"`
	// JobsDone/Failed/Cancelled are monotonic terminal-outcome counters —
	// unlike the jobs_by_state gauge they survive janitor eviction, so
	// rates computed from successive scrapes are meaningful.
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	// JobsDeadlineExceeded counts jobs that hit the deadline_exceeded
	// terminal state; PanicsTotal counts build panics recovered into failed
	// jobs (the worker slot survives every one).
	JobsDeadlineExceeded int64 `json:"jobs_deadline_exceeded"`
	PanicsTotal          int64 `json:"panics_total"`
	// Draining is true once graceful shutdown has begun: submissions get
	// 503 while the running builds finish.
	Draining bool `json:"draining"`
	// BuildsTotal counts builds actually dispatched to a worker — cache and
	// store hits do not increment it, which is how the restart-warm tests
	// prove no recomputation happened.
	BuildsTotal   int64         `json:"builds_total"`
	JobsByState   map[State]int `json:"jobs_by_state"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Workers       int           `json:"workers"`
	CacheHits     int64         `json:"cache_hits"`
	CacheMisses   int64         `json:"cache_misses"`
	CacheHitRatio float64       `json:"cache_hit_ratio"`
	CacheEntries  int           `json:"cache_entries"`
	// SpecMemo* count job-body lookups in the spec memo: bodies resolved
	// from one hash, and bodies decoded, parsed and digested. A fleet node
	// resolves the bodies it routes through its service, so each hop counts
	// one lookup per submit.
	SpecMemoHits   int64 `json:"spec_memo_hits"`
	SpecMemoMisses int64 `json:"spec_memo_misses"`
	// Store* report the durable disk tier: submissions answered from disk
	// (store_hits), lookups that went to disk and found nothing
	// (store_misses), records written, files quarantined as corrupt
	// (store_corrupt_total), LRU evictions, and the current on-disk
	// footprint. All zero with StoreEnabled false.
	StoreEnabled      bool  `json:"store_enabled"`
	StoreHits         int64 `json:"store_hits"`
	StoreMisses       int64 `json:"store_misses"`
	StoreWrites       int64 `json:"store_writes"`
	StoreWriteErrors  int64 `json:"store_write_errors"`
	StoreCorruptTotal int64 `json:"store_corrupt_total"`
	StoreEvictions    int64 `json:"store_evictions"`
	StoreEntries      int   `json:"store_entries"`
	StoreBytes        int64 `json:"store_bytes"`
	StoreMaxBytes     int64 `json:"store_max_bytes"`
	// StoreDegraded is true while the store's circuit breaker is open
	// (memory-only mode: Gets miss, Puts drop, jobs keep completing);
	// StoreRetriesTotal counts transient I/O retries, StoreBreakerTrips
	// counts open transitions, and StoreQuarantined gauges the .corrupt
	// files currently retained for inspection.
	StoreDegraded     bool  `json:"store_degraded"`
	StoreRetriesTotal int64 `json:"store_retries_total"`
	StoreBreakerTrips int64 `json:"store_breaker_trips"`
	StoreQuarantined  int   `json:"store_quarantined"`
	Deduplicated      int64 `json:"deduplicated"`
	Dijkstras         int64 `json:"dijkstras_total"`
	// Spec* aggregate the speculative parallel greedy's counters
	// across completed builds: batches speculated, speculative queries
	// issued (initial batches plus re-speculation rounds), answers
	// committed straight from speculation, answers invalidated by an
	// earlier commit (spec_hits + spec_waste == spec_queries), parallel
	// re-speculation rounds run, and invalidated edges resolved by a single
	// live re-query. spec_hit_ratio is spec_hits / spec_queries, so every
	// wasted speculative query lowers it.
	SpecBatches   int64   `json:"spec_batches"`
	SpecQueries   int64   `json:"spec_queries"`
	SpecHits      int64   `json:"spec_hits"`
	SpecWaste     int64   `json:"spec_waste"`
	SpecRounds    int64   `json:"spec_rounds"`
	SpecRequeries int64   `json:"spec_requeries"`
	SpecHitRatio  float64 `json:"spec_hit_ratio"`
	// JobsEvicted counts terminal jobs removed by the retention janitor;
	// their IDs answer 404 afterwards.
	JobsEvicted int64 `json:"jobs_evicted"`
	// Sessions* report the live-graph-session subsystem: the current live
	// count (gauge), lifetime creations, client closes, idle evictions, and
	// engines seeded from the result cache instead of a cold greedy build.
	SessionsActive       int   `json:"sessions_active"`
	SessionsCreatedTotal int64 `json:"sessions_created_total"`
	SessionsClosedTotal  int64 `json:"sessions_closed_total"`
	SessionsEvictedTotal int64 `json:"sessions_evicted_total"`
	SessionsSeededTotal  int64 `json:"sessions_seeded_total"`
	// SessionDelta* instrument incremental maintenance: applied batches and
	// operations, live oracle queries spent in suffix repairs, decisions carried over by the
	// monotonicity shortcuts without a query, and results published into
	// the cache tiers under evolving digests.
	SessionDeltaBatchesTotal  int64 `json:"session_delta_batches_total"`
	SessionDeltaOpsTotal      int64 `json:"session_delta_ops_total"`
	SessionOracleQueriesTotal int64 `json:"session_oracle_queries_total"`
	SessionShortcutsTotal     int64 `json:"session_shortcut_decisions_total"`
	SessionCachePutsTotal     int64 `json:"session_cache_puts_total"`
	// SessionOracleReuses counts suffix repairs that rewound the engine's
	// retained prefix graph and oracle to the divergence point;
	// SessionOracleRebuilds counts repairs that constructed them from
	// scratch (a seeded session's first repair, a repair after a compaction
	// or an aborted batch, or reuse disabled). Their
	// ratio is the reuse efficacy of the persistent incremental engine.
	SessionOracleReusesTotal   int64 `json:"session_oracle_reuses_total"`
	SessionOracleRebuildsTotal int64 `json:"session_oracle_rebuilds_total"`
	// BuildsInFlight and MaxConcurrentBuilds gauge worker-pool usage: how
	// many builds hold a slot right now and the most that ever did at once.
	BuildsInFlight      int64 `json:"builds_in_flight"`
	MaxConcurrentBuilds int64 `json:"max_concurrent_builds"`
	// Latency carries p50/p90/p99/max/mean summaries of the server's
	// log-bucketed histograms: queue wait, build and persist durations,
	// store get/put, and sampled oracle queries.
	Latency LatencySnapshot `json:"latency"`
}

// Metrics returns a consistent point-in-time snapshot of the server's
// counters and gauges.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		Version:              s.cfg.Version,
		UptimeSeconds:        time.Since(s.started).Seconds(),
		JobsSubmitted:        s.met.jobsSubmitted.Load(),
		JobsDone:             s.met.jobsDone.Load(),
		JobsFailed:           s.met.jobsFailed.Load(),
		JobsCancelled:        s.met.jobsCancelled.Load(),
		JobsDeadlineExceeded: s.met.jobsDeadline.Load(),
		PanicsTotal:          s.met.panics.Load(),
		Draining:             s.draining.Load(),
		BuildsTotal:          s.met.buildsRun.Load(),
		JobsByState:          make(map[State]int),
		QueueCapacity:        s.cfg.QueueDepth,
		Workers:              s.cfg.Workers,
		CacheHits:            s.met.cacheHits.Load(),
		CacheMisses:          s.met.cacheMisses.Load(),
		CacheEntries:         s.cache.Len(),
		Deduplicated:         s.met.dedups.Load(),
		Dijkstras:            s.met.dijkstras.Load(),

		SpecBatches:   s.met.specBatches.Load(),
		SpecQueries:   s.met.specQueries.Load(),
		SpecHits:      s.met.specHits.Load(),
		SpecWaste:     s.met.specWaste.Load(),
		SpecRounds:    s.met.specRounds.Load(),
		SpecRequeries: s.met.specRequeries.Load(),
		JobsEvicted:   s.met.jobsEvicted.Load(),

		SessionsSeededTotal:       s.met.sessionsSeeded.Load(),
		SessionDeltaBatchesTotal:  s.met.sessionDeltaBatches.Load(),
		SessionDeltaOpsTotal:      s.met.sessionDeltaOps.Load(),
		SessionOracleQueriesTotal: s.met.sessionOracleQueries.Load(),
		SessionShortcutsTotal:     s.met.sessionShortcuts.Load(),
		SessionCachePutsTotal:     s.met.sessionCachePuts.Load(),

		SessionOracleReusesTotal:   s.met.sessionOracleReuses.Load(),
		SessionOracleRebuildsTotal: s.met.sessionOracleRebuilds.Load(),

		BuildsInFlight:      s.met.buildsInFlight.Load(),
		MaxConcurrentBuilds: s.met.maxInFlight.Load(),

		Latency: s.lat.snapshot(),
	}
	snap.SpecMemoHits, snap.SpecMemoMisses = s.memo.counts()
	if total := snap.CacheHits + snap.CacheMisses; total > 0 {
		snap.CacheHitRatio = float64(snap.CacheHits) / float64(total)
	}
	// Like core.Stats.SpecHitRate: the share of speculative queries whose
	// answer decided an edge.
	if snap.SpecQueries > 0 {
		snap.SpecHitRatio = float64(snap.SpecHits) / float64(snap.SpecQueries)
	}
	if s.store != nil {
		st := s.store.Snapshot()
		snap.StoreEnabled = true
		snap.StoreHits = st.Hits
		snap.StoreMisses = st.Misses
		snap.StoreWrites = st.Writes
		snap.StoreWriteErrors = st.WriteErrors
		snap.StoreCorruptTotal = st.CorruptTotal
		snap.StoreEvictions = st.Evictions
		snap.StoreEntries = st.Entries
		snap.StoreBytes = st.Bytes
		snap.StoreMaxBytes = st.MaxBytes
		snap.StoreDegraded = st.Degraded
		snap.StoreRetriesTotal = st.Retries
		snap.StoreBreakerTrips = st.BreakerTrips
		snap.StoreQuarantined = len(st.Quarantined)
	}
	// The lifecycle counters move under sessMu together with the session
	// map, so one snapshot always accounts for every session it saw.
	s.sessMu.Lock()
	snap.SessionsActive = len(s.sessions)
	snap.SessionsCreatedTotal = s.met.sessionsCreated.Load()
	snap.SessionsClosedTotal = s.met.sessionsClosed.Load()
	snap.SessionsEvictedTotal = s.met.sessionsEvicted.Load()
	s.sessMu.Unlock()
	s.mu.Lock()
	snap.QueueDepth = len(s.queue)
	for _, j := range s.jobs {
		j.mu.Lock()
		snap.JobsByState[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return snap
}
