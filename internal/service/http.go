package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/ftspanner/ftspanner/internal/verify"
)

// maxVerifyTrials bounds one POST /v1/verify request's work.
const maxVerifyTrials = 10000

// maxPreallocBody bounds the buffer ReadBody allocates from a declared
// Content-Length before the bytes arrive. A client that declares a large
// body and then stalls holds no more than this; a larger body is read as
// it arrives.
const maxPreallocBody = 1 << 20

// bodyReadTimeout bounds the read of one request body, from ReadBody's
// first read to its last byte. A client that sends headers and then stalls
// the body is answered 408 instead of holding its connection, its handler
// and the preallocated buffer forever. ReadBody sets it on the connection
// for the body alone, so it holds on every server that serves this one (a
// fleet node, ftserve's listener, an embedding program) without a
// server-wide http.Server.ReadTimeout, and it never reaches a later request
// on the connection. Tests lower it.
var bodyReadTimeout = 30 * time.Second

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/spanner", s.handleSpanner)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("POST /v1/sessions/{id}/deltas", s.handleSessionDeltas)
	s.mux.HandleFunc("GET /v1/sessions/{id}/spanner", s.handleSessionSpanner)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/cluster/summary", s.handleClusterSummary)
	s.mux.HandleFunc("GET /v1/cluster/records", s.handleClusterRecords)
	s.mux.HandleFunc("GET /v1/cluster/records/{name}", s.handleClusterRecord)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeSubmitError answers a refused submission or session request: a
// submitError with its status (and Retry-After when it carries one), any
// other error with 500.
func writeSubmitError(w http.ResponseWriter, err error) {
	var se *submitError
	if !errors.As(err, &se) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if se.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
	}
	writeError(w, se.status, "%s", se.msg)
}

// ReadBody reads r's body whole, bounded by Config.MaxBodyBytes and by
// bodyReadTimeout: the one read of a request body on this server and on a
// fleet node in front of it. A declared Content-Length over the bound is
// refused before anything is allocated; up to maxPreallocBody, the buffer
// is allocated once at that length. A longer body, or one of unknown
// length, is read through a bounded io.ReadAll. On failure ReadBody answers
// w itself, 413 for a body over the bound, 408 for one not received within
// the deadline and 400 for one that ends short, and returns false.
func (s *Server) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	// A ResponseWriter without a connection (a recorder) has no deadline to
	// set and answers http.ErrNotSupported; its body cannot stall.
	rc := http.NewResponseController(w)
	deadlineSet := rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)) == nil
	limit := s.cfg.MaxBodyBytes
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > limit:
		err = &http.MaxBytesError{Limit: limit}
	case n >= 0 && n <= maxPreallocBody:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default:
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err == nil {
		if deadlineSet {
			// The next request on a keep-alive connection, an events stream
			// say, must not inherit the deadline.
			_ = rc.SetReadDeadline(time.Time{})
		}
		return body, true
	}
	// On failure the deadline stays: the server discards what is left of
	// the body before it answers, and that read is bounded by it too.
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body over the %d-byte limit", limit)
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "request body not received within %v", bodyReadTimeout)
	default:
		writeError(w, http.StatusBadRequest, "read body: %v", err)
	}
	return nil, false
}

// submitResponse answers POST /v1/jobs.
type submitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cached is true when the job was answered from the result cache
	// without queueing a build.
	Cached bool `json:"cached"`
	// FromStore is true when the cache hit was served from the durable
	// on-disk store (e.g. after a restart) rather than the in-memory LRU.
	FromStore bool `json:"from_store,omitempty"`
	// Deduplicated is true when the submission was coalesced onto an
	// identical job already queued or running; ID names that job.
	Deduplicated bool `json:"deduplicated"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.ReadBody(w, r)
	if !ok {
		return
	}
	res, err := s.Resolve(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if !s.SubmitResolved(w, res) {
		writeSubmitError(w, s.drainError())
	}
}

// SubmitResolved submits a resolved job body and answers w as POST /v1/jobs
// does. It reports false, having written nothing, when the server refuses
// the job because it is draining: a fleet node then hedges to another
// replica, and the server's own handler answers 503 with Retry-After.
func (s *Server) SubmitResolved(w http.ResponseWriter, res Resolution) bool {
	job, dedup, err := s.submit(res)
	if errors.Is(err, errDraining) {
		return false
	}
	if err != nil {
		writeSubmitError(w, err)
		return true
	}
	job.mu.Lock()
	resp := submitResponse{ID: job.id, State: job.state, Cached: job.cached,
		FromStore: job.fromStore, Deduplicated: dedup}
	job.mu.Unlock()
	if resp.State == StateQueued && !dedup {
		writeJSON(w, http.StatusAccepted, resp)
		return true
	}
	writeJSON(w, http.StatusOK, resp)
	return true
}

// statusResponse answers GET /v1/jobs/{id}.
type statusResponse struct {
	ID           string     `json:"id"`
	State        State      `json:"state"`
	Algorithm    string     `json:"algorithm"`
	Mode         string     `json:"mode"`
	Stretch      float64    `json:"stretch"`
	Faults       int        `json:"faults"`
	Priority     Priority   `json:"priority"`
	GraphDigest  string     `json:"graph_digest"`
	Vertices     int        `json:"vertices"`
	InputEdges   int        `json:"input_edges"`
	Cached       bool       `json:"cached"`
	FromStore    bool       `json:"from_store,omitempty"`
	SpannerEdges *int       `json:"spanner_edges,omitempty"`
	Stats        *statsBody `json:"stats,omitempty"`
	Error        string     `json:"error,omitempty"`
}

// statsBody is core.Stats in JSON form.
type statsBody struct {
	EdgesScanned  int   `json:"edges_scanned"`
	OracleCalls   int64 `json:"oracle_calls"`
	Dijkstras     int64 `json:"dijkstras"`
	SpecBatches   int64 `json:"spec_batches,omitempty"`
	SpecQueries   int64 `json:"spec_queries,omitempty"`
	SpecHits      int64 `json:"spec_hits,omitempty"`
	SpecWaste     int64 `json:"spec_waste,omitempty"`
	SpecRounds    int64 `json:"spec_rounds,omitempty"`
	SpecRequeries int64 `json:"spec_requeries,omitempty"`
	// SpecHitRate is spec_hits / spec_queries: 1 − spec_waste / spec_queries.
	SpecHitRate float64 `json:"spec_hit_rate,omitempty"`
	DurationMS  float64 `json:"duration_ms"`
	// QueueMS/BuildMS/PersistMS are this job's lifecycle-phase durations as
	// this server observed them: submission-to-worker wait, worker
	// wall-clock, and the durable-store write. All zero for cache hits
	// (DurationMS still reports the original build's engine time).
	QueueMS   float64 `json:"queue_ms"`
	BuildMS   float64 `json:"build_ms"`
	PersistMS float64 `json:"persist_ms,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	job.mu.Lock()
	resp := statusResponse{
		ID:          job.id,
		State:       job.state,
		Algorithm:   job.spec.Algorithm,
		Mode:        job.spec.Mode,
		Stretch:     job.spec.Stretch,
		Faults:      job.spec.Faults,
		Priority:    job.spec.Priority,
		GraphDigest: job.key.Digest,
		Vertices:    job.vertices,
		InputEdges:  job.inputEdges,
		Cached:      job.cached,
		FromStore:   job.fromStore,
	}
	if job.err != nil {
		resp.Error = job.err.Error()
	}
	if job.result != nil {
		m := job.result.NumKept()
		resp.SpannerEdges = &m
		st := job.result.stats
		resp.Stats = &statsBody{
			EdgesScanned:  st.EdgesScanned,
			OracleCalls:   st.OracleCalls,
			Dijkstras:     st.Dijkstras,
			SpecBatches:   st.SpecBatches,
			SpecQueries:   st.SpecQueries,
			SpecHits:      st.SpecHits,
			SpecWaste:     st.SpecWaste,
			SpecRounds:    st.SpecRounds,
			SpecRequeries: st.SpecRequeries,
			SpecHitRate:   st.SpecHitRate(),
			DurationMS:    float64(st.Duration.Microseconds()) / 1000,
			QueueMS:       float64(job.queueWait.Microseconds()) / 1000,
			BuildMS:       float64(job.buildDur.Microseconds()) / 1000,
			PersistMS:     float64(job.persistDur.Microseconds()) / 1000,
		}
	}
	job.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSpanner(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	job.mu.Lock()
	state, res := job.state, job.result
	job.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, "job %s is %s, not done", job.id, state)
		return
	}
	// The answer is {"id":<id>,"spanner":<text>,"kept":[<ids>]} and a
	// newline; all but the ID is the result's one encoding.
	head := appendJSONText([]byte(`{"id":`), job.id)
	tail := res.encoding().tail
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(tail)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(head); err == nil {
		_, _ = w.Write(tail)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	follow(w, r, &job.log)
}

// cancelResponse answers DELETE /v1/jobs/{id}.
type cancelResponse struct {
	ID string `json:"id"`
	// State is the job's state when the cancel was applied; "queued" jobs
	// turn cancelled immediately, "running" jobs shortly after.
	State State `json:"state"`
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	st := s.cancelJob(job)
	writeJSON(w, http.StatusAccepted, cancelResponse{ID: job.id, State: st})
}

// verifyRequest is the POST /v1/verify body.
type verifyRequest struct {
	// JobID names a completed job to verify.
	JobID string `json:"job_id"`
	// Trials is the number of random fault sets to draw (default 32).
	Trials int `json:"trials,omitempty"`
	// Seed makes the check reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Workers sizes the verification pool (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// verifyResponse reports a random-fault check.
type verifyResponse struct {
	JobID  string `json:"job_id"`
	Trials int    `json:"trials"`
	OK     bool   `json:"ok"`
	// Violation describes the broken guarantee when OK is false.
	Violation string `json:"violation,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if body, ok := s.ReadBody(w, r); ok {
		s.ServeVerify(w, body)
	}
}

// ServeVerify answers a POST /v1/verify whose body was already read
// (ReadBody), as a fleet node does to route it by its job ID.
func (s *Server) ServeVerify(w http.ResponseWriter, body []byte) {
	var req verifyRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad verify request: %v", err)
		return
	}
	if req.Trials <= 0 {
		req.Trials = 32
	}
	// Verification runs synchronously on the request goroutine, so bound
	// the client-controlled work instead of letting one request monopolize
	// the host.
	if req.Trials > maxVerifyTrials {
		writeError(w, http.StatusBadRequest, "trials must be at most %d, got %d", maxVerifyTrials, req.Trials)
		return
	}
	if req.Workers > runtime.GOMAXPROCS(0) {
		req.Workers = runtime.GOMAXPROCS(0)
	}
	job, ok := s.job(req.JobID)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", req.JobID)
		return
	}
	job.mu.Lock()
	state, res, spec := job.state, job.result, job.spec
	job.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, "job %s is %s, not done", job.id, state)
		return
	}
	mode, err := parseMode(spec.Mode)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	inst, err := verify.NewInstance(res.Input(), res.spannerGraph(), res.Kept())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "verifier: %v", err)
		return
	}
	resp := verifyResponse{JobID: job.id, Trials: req.Trials, OK: true}
	err = inst.ParallelRandomCheck(spec.Stretch, mode, spec.Faults, req.Trials, req.Workers, newRand(req.Seed))
	if err != nil {
		var v *verify.Violation
		if !errors.As(err, &v) {
			writeError(w, http.StatusInternalServerError, "verify: %v", err)
			return
		}
		resp.OK = false
		resp.Violation = v.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleTrace answers GET /v1/jobs/{id}/trace with the job's lifecycle span
// tree, readable exactly as long as the job.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.trace.Snapshot())
}

// healthResponse answers GET /healthz.
type healthResponse struct {
	Status        string  `json:"status"` // "ok", "degraded", "draining", or "unhealthy"
	Version       string  `json:"version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Store is "ok", "disabled", "degraded" (circuit breaker open,
	// memory-only mode), or the write-probe error.
	Store string `json:"store"`
	// Workers is the configured pool size; zero-valued Error plus status
	// "ok" means the pool is accepting work.
	Workers int    `json:"workers"`
	Error   string `json:"error,omitempty"`
}

// handleHealthz is the liveness/readiness probe: 200 while the worker pool
// is accepting jobs, 503 when shutting down or the store (if any) fails its
// write probe without the breaker having contained it. A degraded store
// (breaker open, jobs still completing memory-only) reports status
// "degraded" with 200 — the server is serving, just without durability.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:        "ok",
		Version:       s.cfg.Version,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Store:         "disabled",
		Workers:       s.cfg.Workers,
	}
	if s.ctx.Err() != nil {
		resp.Status = "unhealthy"
		resp.Error = "server shutting down"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Error = "server draining: finishing in-flight builds, not accepting jobs"
		if s.store != nil {
			// In-flight builds still persist during the drain, so the store
			// state stays informative; no write probe — the answer should be
			// cheap while load balancers poll it.
			resp.Store = "ok"
			if s.store.Degraded() {
				resp.Store = "degraded"
			}
		}
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if s.store != nil {
		switch {
		case s.store.Degraded():
			resp.Status = "degraded"
			resp.Store = "degraded"
		default:
			if err := s.store.Healthy(); err != nil {
				resp.Status = "unhealthy"
				resp.Store = "unwritable"
				resp.Error = err.Error()
				writeJSON(w, http.StatusServiceUnavailable, resp)
				return
			}
			resp.Store = "ok"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
