package service

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// Sessions turn the server's "one build = one job" model into "graph as a
// living resource": POST /v1/sessions creates a long-lived session over an
// initial (possibly empty) graph, POST /v1/sessions/{id}/deltas applies
// batches of edge inserts/deletes and vertex-fault events, and the session's
// spanner is maintained incrementally by core.Incremental — digest-identical
// after every batch to a from-scratch greedy rebuild of the current graph.
// Kept-edge deltas stream over GET /v1/sessions/{id}/events as NDJSON, the
// same machinery job progress uses.
//
// Sessions participate in the two-tier result cache: a session created from
// a graph whose greedy result is already cached (by digest) seeds its engine
// from the cached kept set instead of rebuilding, and after every applied
// batch the session publishes its current result to the memory tier under
// the evolving digest — so a batch job submitted for a graph some session
// just built answers from cache. The disk tier gets only the session's final
// result, written once when the session is deleted, evicted or the server
// closes, so a future session or job over that graph seeds instantly even
// after a restart, while a delta batch costs no durable write.
//
// A publish is one core.Snapshot: the digest, hashed over edge lines the
// mutable graph formatted when each edge entered, plus O(kept) copying. The
// session's spanner read is answered from the snapshot without the session
// lock. The cached result's input graph and kept IDs materialize from the
// snapshot once, and only when something needs them: a job's spanner read
// or /verify, a session seeded from the entry, or the persist at close. A
// cross-job that hits the cache needs none of them.

// maxSessionDeltaOps bounds one delta request's operation count.
const maxSessionDeltaOps = 4096

const (
	defaultSessionRetention = 30 * time.Minute
	defaultMaxSessions      = 64
)

// SessionSpec is the POST /v1/sessions body. Graph and Vertices are
// mutually exclusive: an inline graph starts the session warm, a bare vertex
// count (or nothing) starts it empty for delta-driven growth.
type SessionSpec struct {
	// Graph is the initial graph inline, in the Graph.Encode text format.
	Graph string `json:"graph,omitempty"`
	// Vertices starts an empty session on this many isolated vertices.
	Vertices int `json:"vertices,omitempty"`
	// Stretch is the spanner parameter k >= 1.
	Stretch float64 `json:"stretch"`
	// Faults is the fault-tolerance parameter f >= 0.
	Faults int `json:"faults"`
	// Mode is "vertex" (default) or "edge".
	Mode string `json:"mode,omitempty"`
	// RebuildThreshold is accepted and ignored: every batch runs the suffix
	// repair. It stays in the wire format with its finite-value check so
	// that every existing client's request is accepted or rejected exactly
	// as before.
	RebuildThreshold float64 `json:"rebuild_threshold,omitempty"`
	// NoCache opts the session out of the two-tier result cache: no seeding
	// at create, no publishing after batches, nothing persisted at close.
	NoCache bool `json:"no_cache,omitempty"`
	// DisableStateReuse is accepted and ignored, like RebuildThreshold:
	// every session carries its engine's prefix graph and fault oracle
	// across delta batches. It stays in the wire format so that every
	// existing client's request is still accepted.
	DisableStateReuse bool `json:"disable_state_reuse,omitempty"`
}

// Session delta operation names.
const (
	SessionOpInsert = "insert"
	SessionOpDelete = "delete"
	SessionOpFault  = "fault"
)

// sessionDelta is one mutation in a POST /v1/sessions/{id}/deltas request.
type sessionDelta struct {
	// Op is "insert" (edge U-V with Weight), "delete" (live edge U-V), or
	// "fault" (permanently remove every live edge incident to Vertex).
	Op     string  `json:"op"`
	U      int     `json:"u,omitempty"`
	V      int     `json:"v,omitempty"`
	Weight float64 `json:"weight,omitempty"`
	Vertex int     `json:"vertex,omitempty"`
}

// sessionDeltasRequest is the POST /v1/sessions/{id}/deltas body.
type sessionDeltasRequest struct {
	// AddVertices appends this many isolated vertices before the deltas run.
	AddVertices int            `json:"add_vertices,omitempty"`
	Deltas      []sessionDelta `json:"deltas"`
}

// SessionEdge is one edge in a session response, by endpoints and weight
// (session-internal edge IDs shift under compaction, so responses never
// expose them).
type SessionEdge struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"w"`
}

// SessionEvent is one NDJSON record of a session's events stream: the
// kept-set delta of one applied batch, plus lifecycle markers.
type SessionEvent struct {
	Seq int `json:"seq"`
	// Type is "created", "deltas", or "closed".
	Type string `json:"type"`
	// Batch numbers the applied delta batches from 1 ("deltas" only).
	Batch int `json:"batch,omitempty"`
	// LiveEdges and Kept are the totals after the event.
	LiveEdges int `json:"live_edges"`
	Kept      int `json:"kept"`
	// KeptAdded and KeptRemoved are the spanner membership changes, in scan
	// order.
	KeptAdded   []SessionEdge `json:"kept_added,omitempty"`
	KeptRemoved []SessionEdge `json:"kept_removed,omitempty"`
	// Digest is the materialized current graph's content digest.
	Digest string `json:"digest,omitempty"`
	// Reason annotates "closed" events ("deleted", "retention expired",
	// "server closed").
	Reason string `json:"reason,omitempty"`
}

// reasonExpired closes a session the retention sweep found idle.
const reasonExpired = "retention expired"

// Session is one live graph session.
type Session struct {
	id        string
	spec      SessionSpec
	createdAt time.Time

	// log is the session's event stream; retention is touched on every use
	// and closes the session once it has been idle too long.
	log       eventLog[SessionEvent]
	retention retentionClock

	mu      sync.Mutex
	eng     *core.Incremental
	batches int
	// result is the cache entry for the engine's state as last published,
	// which closeSession persists. Its snapshot's digest, sizes and kept
	// edges answer the session's reads.
	result *buildResult
	seeded bool // engine seeded from the result cache at create
	closed bool
}

// sessionEdges converts engine edges to the response shape.
func sessionEdges(in []graph.Edge) []SessionEdge {
	if len(in) == 0 {
		return nil
	}
	out := make([]SessionEdge, len(in))
	for i, e := range in {
		out[i] = SessionEdge{U: e.U, V: e.V, Weight: e.Weight}
	}
	return out
}

// validateSessionSpec fills defaults and rejects invalid specs, mirroring
// normalizeSpec for jobs.
func validateSessionSpec(spec *SessionSpec) error {
	if spec.Mode == "" {
		spec.Mode = fault.Vertices.String()
	}
	if _, err := parseMode(spec.Mode); err != nil {
		return err
	}
	if spec.Stretch < 1 || math.IsInf(spec.Stretch, 0) || math.IsNaN(spec.Stretch) {
		return fmt.Errorf("stretch must be a finite number >= 1, got %v", spec.Stretch)
	}
	if spec.Faults < 0 {
		return fmt.Errorf("faults must be >= 0, got %d", spec.Faults)
	}
	if math.IsNaN(spec.RebuildThreshold) || math.IsInf(spec.RebuildThreshold, 0) {
		return fmt.Errorf("rebuild_threshold must be finite, got %v", spec.RebuildThreshold)
	}
	if spec.Graph != "" && spec.Vertices != 0 {
		return fmt.Errorf("graph and vertices are mutually exclusive")
	}
	if spec.Vertices < 0 || spec.Vertices > maxGeneratedSize {
		return fmt.Errorf("vertices must be in [0,%d], got %d", maxGeneratedSize, spec.Vertices)
	}
	return nil
}

// incrementalOptions translates a validated spec into engine options.
func (s *Server) incrementalOptions(spec SessionSpec) core.IncrementalOptions {
	mode, _ := parseMode(spec.Mode) // validated already
	return core.IncrementalOptions{
		Stretch: spec.Stretch,
		Faults:  spec.Faults,
		Mode:    mode,
		Oracle: fault.Options{
			ObserveQuery: func(d time.Duration) { s.lat.oracleQuery.Record(d) },
		},
		Progress: func(scanned, kept int) error { return s.ctx.Err() },
	}
}

// sessionCacheKey is the two-tier cache key of the session's current
// materialized graph: exactly the key a greedy batch job over that graph
// would use, so sessions and jobs share results in both directions.
func sessionCacheKey(spec SessionSpec, digest string) CacheKey {
	return CacheKey{
		Digest:    digest,
		Stretch:   spec.Stretch,
		Faults:    spec.Faults,
		Mode:      spec.Mode,
		Algorithm: AlgoGreedy,
	}
}

// publishSession makes the engine's current result the session's published
// one: it is what the spanner endpoint serves and what closeSession
// persists, and unless the session is NoCache it goes into the memory cache
// tier under its evolving digest. It costs one Snapshot — one hash over the
// cached lines plus O(kept) copying; the result's input graph, spanner and
// kept IDs materialize only if a job or the persist asks for them. Caller
// holds sess.mu.
func (s *Server) publishSession(sess *Session) error {
	start := time.Now()
	snap, err := sess.eng.Snapshot()
	if err != nil {
		return err
	}
	res := &buildResult{snap: snap}
	res.stats.EdgesScanned = snap.LiveEdges
	sess.result = res
	if !sess.spec.NoCache {
		s.cache.Put(sessionCacheKey(sess.spec, snap.Digest), res)
		s.met.sessionCachePuts.Add(1)
	}
	s.lat.sessionPublish.Record(time.Since(start))
	return nil
}

// createSession builds the engine (seeding from the result cache when the
// initial graph's greedy result is already known) and registers the session.
func (s *Server) createSession(spec SessionSpec) (*Session, error) {
	// A full server refuses before paying for the decode and the build; the
	// insert below checks again.
	s.sessMu.Lock()
	err := s.sessionCapErrorLocked()
	s.sessMu.Unlock()
	if err != nil {
		return nil, err
	}
	var initial *graph.Graph
	if spec.Graph != "" {
		g, err := graph.DecodeString(spec.Graph, maxGeneratedSize)
		if err != nil {
			return nil, &submitError{status: http.StatusBadRequest, msg: fmt.Sprintf("inline graph: %v", err)}
		}
		initial = g
	} else if spec.Vertices > 0 {
		initial = graph.New(spec.Vertices)
	}

	opts := s.incrementalOptions(spec)
	var eng *core.Incremental
	seeded := false
	if initial != nil && initial.NumEdges() > 0 && !spec.NoCache {
		key := sessionCacheKey(spec, initial.Digest())
		res, hit := s.cache.Get(key)
		if !hit && s.store != nil {
			if stored := s.storeGet(key, initial); stored != nil {
				s.cache.Put(key, stored)
				res, hit = stored, true
			}
		}
		if hit {
			if e, err := core.NewIncrementalSeeded(initial, res.Kept(), opts); err == nil {
				eng, seeded = e, true
				s.met.sessionsSeeded.Add(1)
			}
			// A seed failure falls through to the cold build: the cache is
			// an accelerator, never a correctness dependency.
		}
	}
	if eng == nil {
		var err error
		eng, err = core.NewIncremental(initial, opts)
		if err != nil {
			return nil, &submitError{status: http.StatusBadRequest, msg: err.Error()}
		}
	}

	// Until the insert below nothing else can see sess, so it needs no lock.
	sess := &Session{spec: spec, createdAt: time.Now(), eng: eng, seeded: seeded}
	sess.retention.touch()
	_ = s.publishSession(sess) // a fresh engine needs no repair
	sess.log.append(SessionEvent{
		Type:      "created",
		LiveEdges: sess.eng.NumLiveEdges(),
		Kept:      sess.eng.KeptCount(),
		Digest:    sess.result.snap.Digest,
	}, false)

	s.sessMu.Lock()
	// Close sets draining before it closes the live sessions under sessMu,
	// so a session inserted here is one that Close will close.
	if s.draining.Load() {
		s.sessMu.Unlock()
		return nil, s.drainError()
	}
	if err := s.sessionCapErrorLocked(); err != nil {
		s.sessMu.Unlock()
		return nil, err
	}
	s.nextSess++
	sess.id = fmt.Sprintf("s%d", s.nextSess)
	s.sessions[sess.id] = sess
	s.met.sessionsCreated.Add(1)
	s.sessMu.Unlock()
	return sess, nil
}

// sessionCapErrorLocked returns the 429 a create gets when MaxSessions
// sessions are live, or nil. Caller holds sessMu.
func (s *Server) sessionCapErrorLocked() error {
	if max := s.maxSessions(); max > 0 && len(s.sessions) >= max {
		return &submitError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("session limit reached (%d active, cap %d)", max, max),
			retryAfter: 1,
		}
	}
	return nil
}

// maxSessions resolves the configured session cap (<= -1 unlimited).
func (s *Server) maxSessions() int {
	if s.cfg.MaxSessions < 0 {
		return 0
	}
	if s.cfg.MaxSessions == 0 {
		return defaultMaxSessions
	}
	return s.cfg.MaxSessions
}

// session looks a session up by ID and touches its retention clock.
func (s *Server) session(id string) (*Session, bool) {
	s.sessMu.Lock()
	sess, ok := s.sessions[id]
	s.sessMu.Unlock()
	if ok {
		sess.retention.touch()
	}
	return sess, ok
}

// closeSessions closes, with reason, the live sessions that match selects
// and returns how many it closed. It holds sessMu only to pick them and
// takes no session's lock to do so.
func (s *Server) closeSessions(reason string, match func(*Session) bool) int {
	var picked []*Session
	s.sessMu.Lock()
	for _, sess := range s.sessions {
		if match(sess) {
			picked = append(picked, sess)
		}
	}
	s.sessMu.Unlock()
	n := 0
	for _, sess := range picked {
		if s.closeSession(sess, reason) {
			n++
		}
	}
	return n
}

// closeSession is a session's one exit, for DELETE, the retention sweep and
// Close alike: it takes the session out of the map, ends its event stream
// with a "closed" event, and writes its final result to the disk tier. Only
// the first exit of a session does this; it reports whether it was this one.
func (s *Server) closeSession(sess *Session, reason string) bool {
	s.sessMu.Lock()
	live := s.sessions[sess.id] == sess
	if live {
		// Counted before the session leaves the map, so no Metrics
		// snapshot sees it neither active nor closed.
		if reason == reasonExpired {
			s.met.sessionsEvicted.Add(1)
		} else {
			s.met.sessionsClosed.Add(1)
		}
		delete(s.sessions, sess.id)
	}
	s.sessMu.Unlock()
	if !live {
		return false
	}
	sess.mu.Lock()
	sess.closed = true
	sess.log.append(SessionEvent{
		Type:      "closed",
		LiveEdges: sess.eng.NumLiveEdges(),
		Kept:      sess.eng.KeptCount(),
		Digest:    sess.result.snap.Digest,
		Reason:    reason,
	}, true)
	res := sess.result
	sess.mu.Unlock()
	// The write is disk I/O, so it runs without sess.mu.
	if res != nil && !sess.spec.NoCache {
		s.storePut(sessionCacheKey(sess.spec, res.snap.Digest), res)
	}
	return true
}

// sessionResponse answers session create/status requests.
type sessionResponse struct {
	ID        string  `json:"id"`
	Stretch   float64 `json:"stretch"`
	Faults    int     `json:"faults"`
	Mode      string  `json:"mode"`
	Vertices  int     `json:"vertices"`
	LiveEdges int     `json:"live_edges"`
	Kept      int     `json:"kept"`
	// Digest is the materialized current graph's content digest — the
	// session's evolving cache identity.
	Digest string `json:"digest"`
	// Seeded is true when the engine skipped its initial build because the
	// initial graph's greedy result was already in the result cache.
	Seeded bool `json:"seeded,omitempty"`
	// Batches counts the delta batches applied so far.
	Batches int `json:"batches"`
	// NeedsRepair is true when the last batch aborted mid-repair; the next
	// deltas or spanner request completes the re-scan.
	NeedsRepair bool `json:"needs_repair,omitempty"`
}

func (s *Server) sessionResponseLocked(sess *Session) sessionResponse {
	return sessionResponse{
		ID:          sess.id,
		Stretch:     sess.spec.Stretch,
		Faults:      sess.spec.Faults,
		Mode:        sess.spec.Mode,
		Vertices:    sess.eng.NumVertices(),
		LiveEdges:   sess.eng.NumLiveEdges(),
		Kept:        sess.eng.KeptCount(),
		Digest:      sess.result.snap.Digest,
		Seeded:      sess.seeded,
		Batches:     sess.batches,
		NeedsRepair: sess.eng.NeedsRepair(),
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeSubmitError(w, s.drainError())
		return
	}
	body, ok := s.ReadBody(w, r)
	if !ok {
		return
	}
	var spec SessionSpec
	if err := decodeStrict(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad session spec: %v", err)
		return
	}
	if err := validateSessionSpec(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad session spec: %v", err)
		return
	}
	sess, err := s.createSession(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	sess.mu.Lock()
	resp := s.sessionResponseLocked(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	sess.mu.Lock()
	resp := s.sessionResponseLocked(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// sessionDeltasResponse answers POST /v1/sessions/{id}/deltas.
type sessionDeltasResponse struct {
	ID          string        `json:"id"`
	Batch       int           `json:"batch"`
	LiveEdges   int           `json:"live_edges"`
	Kept        int           `json:"kept"`
	KeptAdded   []SessionEdge `json:"kept_added,omitempty"`
	KeptRemoved []SessionEdge `json:"kept_removed,omitempty"`
	Digest      string        `json:"digest"`
	// Repair instrumentation for the batch.
	SuffixLen     int     `json:"suffix_len"`
	OracleQueries int64   `json:"oracle_queries"`
	ShortcutKeeps int     `json:"shortcut_keeps"`
	ShortcutDrops int     `json:"shortcut_drops"`
	OracleReused  bool    `json:"oracle_reused,omitempty"`
	OracleBuilt   bool    `json:"oracle_built,omitempty"`
	DurationMS    float64 `json:"duration_ms"`
}

func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeSubmitError(w, s.drainError())
		return
	}
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	body, ok := s.ReadBody(w, r)
	if !ok {
		return
	}
	var req sessionDeltasRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad deltas request: %v", err)
		return
	}
	if len(req.Deltas) > maxSessionDeltaOps {
		writeError(w, http.StatusBadRequest, "at most %d deltas per batch, got %d", maxSessionDeltaOps, len(req.Deltas))
		return
	}
	batch := core.Batch{AddVertices: req.AddVertices}
	for i, d := range req.Deltas {
		switch d.Op {
		case SessionOpInsert:
			batch.Deltas = append(batch.Deltas, core.Delta{Op: core.DeltaInsert, U: d.U, V: d.V, Weight: d.Weight})
		case SessionOpDelete:
			batch.Deltas = append(batch.Deltas, core.Delta{Op: core.DeltaDelete, U: d.U, V: d.V})
		case SessionOpFault:
			batch.Deltas = append(batch.Deltas, core.Delta{Op: core.DeltaFaultVertex, Vertex: d.Vertex})
		default:
			writeError(w, http.StatusBadRequest, "delta %d: unknown op %q (want %s, %s, or %s)",
				i, d.Op, SessionOpInsert, SessionOpDelete, SessionOpFault)
			return
		}
	}

	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "session %s is closed", sess.id)
		return
	}
	res, err := sess.eng.ApplyBatch(batch)
	if err != nil {
		needsRepair := sess.eng.NeedsRepair()
		sess.mu.Unlock()
		var de *core.DeltaError
		if errors.As(err, &de) {
			writeError(w, http.StatusBadRequest, "%v", de)
			return
		}
		if needsRepair {
			writeError(w, http.StatusInternalServerError,
				"batch applied but repair aborted (%v); retry or read the spanner to finish the repair", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sess.batches++
	batchNo := sess.batches
	_ = s.publishSession(sess) // the batch succeeded, so the engine needs no repair
	ev := SessionEvent{
		Type:        "deltas",
		Batch:       batchNo,
		LiveEdges:   res.LiveEdges,
		Kept:        res.Kept,
		KeptAdded:   sessionEdges(res.KeptAdded),
		KeptRemoved: sessionEdges(res.KeptRemoved),
		Digest:      sess.result.snap.Digest,
	}
	sess.log.append(ev, false)
	resp := sessionDeltasResponse{
		ID:            sess.id,
		Batch:         batchNo,
		LiveEdges:     res.LiveEdges,
		Kept:          res.Kept,
		KeptAdded:     ev.KeptAdded,
		KeptRemoved:   ev.KeptRemoved,
		Digest:        sess.result.snap.Digest,
		SuffixLen:     res.Stats.SuffixLen,
		OracleQueries: res.Stats.OracleQueries,
		ShortcutKeeps: res.Stats.ShortcutKeeps,
		ShortcutDrops: res.Stats.ShortcutDrops,
		OracleReused:  res.Stats.OracleReused,
		OracleBuilt:   res.Stats.OracleBuilt,
		DurationMS:    float64(res.Stats.Duration.Microseconds()) / 1000,
	}
	sess.mu.Unlock()

	s.met.sessionDeltaBatches.Add(1)
	s.met.sessionDeltaOps.Add(int64(len(req.Deltas)))
	s.met.sessionOracleQueries.Add(res.Stats.OracleQueries)
	s.met.sessionShortcuts.Add(int64(res.Stats.ShortcutKeeps + res.Stats.ShortcutDrops))
	s.lat.sessionDelta.Record(res.Stats.Duration)
	if res.Stats.OracleReused {
		s.met.sessionOracleReuses.Add(1)
	}
	if res.Stats.OracleBuilt {
		s.met.sessionOracleRebuilds.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionSpanner(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	sess.mu.Lock()
	if sess.eng.NeedsRepair() {
		// The documented recovery path: finish the aborted re-scan, and
		// publish its result, before answering reads.
		err := sess.eng.Repair()
		if err == nil {
			err = s.publishSession(sess)
		}
		if err != nil {
			sess.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "repair: %v", err)
			return
		}
	}
	// The snapshot is immutable, so the answer is built and written without
	// sess.mu: a slow reader never holds up the session's batches.
	snap := sess.result.snap
	sess.mu.Unlock()
	writeSessionAnswer(w, sess.id, snap)
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	follow(w, r, &sess.log)
}

// sessionDeleteResponse answers DELETE /v1/sessions/{id}.
type sessionDeleteResponse struct {
	ID     string `json:"id"`
	Closed bool   `json:"closed"`
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.session(id)
	if !ok || !s.closeSession(sess, "deleted") {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, sessionDeleteResponse{ID: id, Closed: true})
}
