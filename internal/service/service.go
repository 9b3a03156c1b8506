// Package service implements ftserve, the HTTP/JSON spanner-build service:
// clients submit build jobs (input graph inline or by named generator), a
// bounded worker pool drains one FIFO job queue, per-job contexts make
// running builds cancellable mid-scan, and completed results are served from
// a two-tier result cache keyed by (graph digest, stretch, faults, mode,
// algorithm): an in-memory LRU in front of an optional durable on-disk store
// that survives restarts.
//
// Endpoints:
//
//	POST   /v1/jobs               submit a build job
//	GET    /v1/jobs/{id}          job status and instrumentation
//	GET    /v1/jobs/{id}/spanner  the built spanner and kept-edge IDs
//	GET    /v1/jobs/{id}/events   NDJSON progress stream
//	GET    /v1/jobs/{id}/trace    the job's lifecycle span tree
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	POST   /v1/verify             random-fault check of a completed job
//	POST   /v1/sessions           create a live graph session
//	GET    /v1/sessions/{id}         session status
//	POST   /v1/sessions/{id}/deltas  apply edge inserts/deletes/faults
//	GET    /v1/sessions/{id}/spanner the session's current spanner
//	GET    /v1/sessions/{id}/events  NDJSON kept-edge delta stream
//	DELETE /v1/sessions/{id}         close a session
//	GET    /metrics               queue, cache, store, and build counters
//	GET    /healthz               liveness and readiness probe
//	GET    /v1/cluster/summary        the replica's load as the fleet router sees it
//	GET    /v1/cluster/records        the store's record listing, for anti-entropy
//	GET    /v1/cluster/records/{name} one raw store record
//
// Both event streams end on their entity's terminal event, also at server
// shutdown, and both logs keep the last 256 events.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/store"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the size of the build worker pool (default 4).
	Workers int
	// QueueDepth bounds the queued jobs; submissions beyond it are rejected
	// with 503 and a Retry-After header (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory result LRU cache (default 128).
	CacheEntries int
	// StoreDir enables the durable result store: one content-addressed file
	// per (graph digest, parameters) under this directory, consulted on
	// in-memory cache misses and written on every completed build, so a
	// restarted server over the same directory is warm. Empty disables
	// persistence.
	StoreDir string
	// StoreMaxBytes LRU-bounds the store's total on-disk bytes; a background
	// evictor deletes least-recently-used records over the bound. Zero
	// selects the default of 256 MiB; negative disables the bound.
	StoreMaxBytes int64
	// MaxBodyBytes bounds request bodies, which contain inline graphs
	// (default 8 MiB). A fleet node in front of the server reads its bodies
	// under the same bound (ReadBody).
	MaxBodyBytes int64
	// JobRetention bounds how long terminal jobs (done, failed, cancelled)
	// stay addressable after finishing; a background janitor evicts older
	// ones, and evicted job IDs answer 404. Without it the in-memory job map
	// grows forever under sustained traffic. Zero selects the default of 15
	// minutes; negative disables eviction. Results outlive their jobs in the
	// result cache, so an evicted job's spanner is still one resubmission
	// away.
	JobRetention time.Duration
	// Version is an opaque build stamp reported in /metrics and /healthz.
	Version string
	// Chaos, if non-nil, is handed to every greedy build as the core
	// engine's fault-injection hook (core.Options.Chaos): it is invoked at
	// named sites inside oracle queries, speculation workers, and
	// re-speculation rounds, and may panic to exercise the server's panic
	// containment. Test-only; nil in production.
	Chaos func(site string)
	// StoreFS overrides the durable store's filesystem seam (store.FS) so
	// tests can inject I/O faults; nil selects the real OS filesystem.
	StoreFS store.FS
	// StoreProbeInterval overrides how often a degraded store re-probes the
	// disk (store.Config.ProbeInterval); zero selects the store default.
	// Test-only: short intervals make breaker re-arm observable quickly.
	StoreProbeInterval time.Duration
	// StoreRetrySeed seeds the store's retry-jitter randomness
	// (store.Config.JitterSeed) so chaos runs replay deterministically under
	// CHAOS_SEED; zero lets the store pick a time-based seed.
	StoreRetrySeed int64
	// SessionRetention bounds how long an idle graph session stays alive:
	// the janitor closes and evicts sessions untouched for this long (their
	// event streams see a terminal "closed" event). Zero selects the default
	// of 30 minutes; negative disables eviction.
	SessionRetention time.Duration
	// MaxSessions caps concurrently live graph sessions; creations beyond it
	// are refused with 429. Zero selects the default of 64; negative removes
	// the cap.
	MaxSessions int
}

const (
	defaultJobRetention  = 15 * time.Minute
	defaultStoreMaxBytes = 256 << 20
)

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.JobRetention == 0 {
		c.JobRetention = defaultJobRetention
	}
	if c.StoreMaxBytes == 0 {
		c.StoreMaxBytes = defaultStoreMaxBytes
	}
	if c.SessionRetention == 0 {
		c.SessionRetention = defaultSessionRetention
	}
}

// Server is the ftserve HTTP handler plus its worker pool. Create one with
// New and release it with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *lruCache[CacheKey, *buildResult]
	store *store.Store // nil when persistence is disabled
	// memo resolves job bodies for submission and, on a fleet node, for
	// routing (Resolve).
	memo *specMemo
	met  metrics

	// Observability (obs.go): latency histograms for /metrics and the start
	// time behind uptime_seconds.
	lat     *latencies
	started time.Time

	// wake carries one token per enqueued job so idle workers notice new
	// work; spurious tokens (for jobs cancelled while queued) just make a
	// worker re-check an empty queue.
	wake chan struct{}

	mu     sync.Mutex
	queue  jobQueue // pending jobs, oldest first
	jobs   map[string]*Job
	active map[CacheKey]*Job // queued or running, for in-flight dedup
	nextID int64
	// idPrefix scopes minted job IDs to a fleet replica (SetJobIDPrefix).
	idPrefix string

	// Live graph sessions (session.go). Lock order: sessMu before any
	// individual session's mu.
	sessMu   sync.Mutex
	sessions map[string]*Session
	nextSess int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// draining refuses new submissions (503 + Retry-After) while running
	// builds finish; set by StartDrain and by Close. inflight counts
	// dequeued jobs from dequeue (under s.mu) to the end of run, so Drain
	// can wait for exactly the builds that hold worker slots: StartDrain
	// empties the queues under the same s.mu, after which no new Add can
	// race the Wait. closeOnce makes Close idempotent.
	draining  atomic.Bool
	inflight  sync.WaitGroup
	closeOnce sync.Once
}

// New returns a Server with cfg's worker pool already running. With
// Config.StoreDir set it opens (creating if needed) the durable result
// store first and fails if the directory is unusable.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		st, err = store.OpenConfig(store.Config{
			Dir:           cfg.StoreDir,
			MaxBytes:      cfg.StoreMaxBytes,
			FS:            cfg.StoreFS,
			ProbeInterval: cfg.StoreProbeInterval,
			JitterSeed:    cfg.StoreRetrySeed,
		})
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		wake:     make(chan struct{}, cfg.QueueDepth),
		cache:    newLRU[CacheKey, *buildResult](cfg.CacheEntries),
		memo:     newSpecMemo(),
		store:    st,
		jobs:     make(map[string]*Job),
		active:   make(map[CacheKey]*Job),
		sessions: make(map[string]*Session),
		lat:      newLatencies(),
		started:  time.Now(),
		ctx:      ctx,
		cancel:   cancel,
	}
	if st != nil {
		st.SetObserver(s.lat.storeObserver)
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.JobRetention > 0 || cfg.SessionRetention > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// Close cancels every in-flight build, waits for the workers to exit, closes
// each live session (writing its final result to the durable store), and
// releases the store. Persisted results stay on disk for the next Server
// over the same directory. Close is idempotent, and safe against concurrent
// submissions: admissions stop first, then the pool drains, then any job
// that slipped into the queue is cancelled so no client waits on it
// forever.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.cancel()
		s.wg.Wait()
		s.cancelQueued("server closed")
		s.closeSessions("server closed", func(*Session) bool { return true })
		if s.store != nil {
			s.store.Close()
		}
	})
}

// StartDrain flips the server into draining mode: new submissions are
// refused with 503 + Retry-After (estimated from the running builds'
// progress), queued jobs that no worker has picked up are cancelled, and
// running builds keep their worker slots. Idempotent; follow with Drain to
// wait for the in-flight builds.
func (s *Server) StartDrain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.cancelQueued("server draining")
}

// cancelQueued empties the job queue, cancelling the jobs it finds. With
// draining already set no new job can join behind it.
func (s *Server) cancelQueued(reason string) {
	s.mu.Lock()
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, job := range queued {
		job.mu.Lock()
		if job.state != StateQueued { // cancelled by the client already
			job.mu.Unlock()
			continue
		}
		job.cancelQueuedLocked(reason)
		job.mu.Unlock()
		s.dropActive(job)
		s.met.jobsCancelled.Add(1)
	}
}

// Drain waits for every in-flight build to finish (and persist) or for ctx
// to expire, whichever is first. On expiry the running builds are cancelled
// and Drain still waits for the workers to record their terminal states —
// the forced path loses results, never invariants. Call StartDrain first;
// Drain on a non-draining server just waits for the momentary in-flight
// set.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // cancels every running build's context
		<-done
		return ctx.Err()
	}
}

// DrainAndClose is the graceful shutdown path: stop admissions, let running
// builds finish within ctx, then release everything with Close. Returns
// ctx's error when the drain had to force-cancel builds.
func (s *Server) DrainAndClose(ctx context.Context) error {
	s.StartDrain()
	err := s.Drain(ctx)
	s.Close()
	return err
}

// SetJobIDPrefix makes the server mint job IDs as prefix + "j<n>", so a
// fleet replica's IDs name the replica that holds the job. Call it before
// serving; sessions stay unprefixed.
func (s *Server) SetJobIDPrefix(prefix string) {
	s.mu.Lock()
	s.idPrefix = prefix
	s.mu.Unlock()
}

// Draining reports whether the server is refusing new submissions while it
// shuts down.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		if job := s.dequeue(); job != nil {
			s.run(job)
			s.inflight.Done()
			continue
		}
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// dequeue pops the oldest pending job, or nil when the queue is empty. A
// popped job joins the in-flight count under the same s.mu hold, so Drain
// (which empties the queue under s.mu before waiting) can never miss one.
func (s *Server) dequeue() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.queue.pop()
	if job != nil {
		job.dequeued = true
		s.inflight.Add(1)
	}
	return job
}

// jobQueue is the pending-job FIFO. Server.mu guards it.
type jobQueue []*Job

func (q *jobQueue) push(job *Job) { *q = append(*q, job) }

// pop removes and returns the oldest job, or nil when the queue is empty.
func (q *jobQueue) pop() *Job {
	if len(*q) == 0 {
		return nil
	}
	job := (*q)[0]
	(*q)[0] = nil
	*q = (*q)[1:]
	return job
}

// remove deletes the job in place; a no-op when a worker popped it first.
func (q *jobQueue) remove(job *Job) {
	for i, p := range *q {
		if p == job {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// run executes one dequeued job. A job whose key an identical job has
// cached meanwhile ends done from that result, and one whose deadline passed
// while it was queued ends deadline_exceeded; neither starts a build.
// Otherwise the worker slot is held only until the job's context is
// cancelled or the build returns, whichever is first: a cancelled greedy
// build aborts at the next edge scan via the Progress hook, and the baseline
// algorithms (which have no hook) are abandoned to finish in the background
// with their result discarded.
func (s *Server) run(job *Job) {
	// The deadline is final once the job is dequeued (dedupLocked moves only
	// a queued job's). It becomes a real context deadline covering the rest
	// of the job; the queue wait already spent against it is inherent in the
	// absolute deadline.
	var ctx context.Context
	var cancel context.CancelFunc
	if job.deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.ctx)
	} else {
		ctx, cancel = context.WithDeadline(s.ctx, job.deadline)
	}
	defer cancel()
	res, hit := s.cache.Get(job.key)

	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting in the queue
		job.mu.Unlock()
		return
	}
	job.queueSpan.End()
	now := time.Now()
	wait := now.Sub(job.enqueuedAt)
	job.queueWait = wait
	switch {
	case hit:
		// An identical job built the result while this one waited: a
		// submission that could not join a running build (dedupLocked).
		job.doneFromCacheLocked(res, false)
	case ctx.Err() == nil:
		job.cancel = cancel
		job.setStateLocked(StateRunning, Event{})
		job.startedAt = now
		job.buildSpan = job.trace.Root().StartSpan("build")
	}
	job.mu.Unlock()
	s.lat.queueWait.Record(wait)
	if hit {
		root := job.trace.Root()
		root.SetAttr("cached", 1)
		root.End()
		s.dropActive(job)
		return
	}
	if err := ctx.Err(); err != nil {
		s.finish(job, nil, err)
		return
	}
	s.met.buildsRun.Add(1)
	s.met.buildStarted()
	defer s.met.buildFinished()

	type outcome struct {
		res *buildResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		// Contain build panics (a bug in an algorithm, or the injected
		// chaos hook) to this job: the panic becomes a failed-job error
		// carrying the value and stack, and the worker slot survives.
		defer func() {
			if v := recover(); v != nil {
				ch <- outcome{nil, &core.PanicError{
					Site: "build", Value: v, Stack: debug.Stack(),
				}}
			}
		}()
		res, err := s.build(ctx, job)
		ch <- outcome{res, err}
	}()
	select {
	case <-ctx.Done():
		// ctx.Err distinguishes shutdown/cancel (Canceled) from a missed
		// job deadline (DeadlineExceeded); finish maps them to distinct
		// terminal states.
		s.finish(job, nil, ctx.Err())
	case out := <-ch:
		s.finish(job, out.res, out.err)
	}
}

// finish moves a running job to its terminal state, updates the metrics,
// and caches successful results in both tiers. It also ends a dequeued job
// that never started its build, with the error of its done context. Late
// calls (a build result arriving after cancellation already finished the
// job) are no-ops.
func (s *Server) finish(job *Job, res *buildResult, err error) {
	job.mu.Lock()
	if job.state != StateRunning && job.state != StateQueued {
		job.mu.Unlock()
		return
	}
	job.buildSpan.End()
	var buildDur time.Duration
	if !job.startedAt.IsZero() {
		buildDur = time.Since(job.startedAt)
		job.buildDur = buildDur
	}
	var pe *core.PanicError
	switch {
	case err == nil:
		// The result enters the memory cache before the job turns done, so
		// whoever sees the job done and submits it again hits the cache.
		s.cache.Put(job.key, res)
		job.result = res
		job.setStateLocked(StateDone, Event{Scanned: res.stats.EdgesScanned, Kept: res.NumKept()})
	case errors.Is(err, context.DeadlineExceeded):
		job.expireLocked()
	case errors.Is(err, context.Canceled):
		job.setStateLocked(StateCancelled, Event{})
	case errors.As(err, &pe):
		// The job error keeps the panic value AND stack; the stream event
		// stays compact with just the value.
		job.err = fmt.Errorf("%v\n%s", pe, pe.Stack)
		job.setStateLocked(StateFailed, Event{Error: pe.Error()})
	default:
		job.err = err
		job.setStateLocked(StateFailed, Event{Error: err.Error()})
	}
	job.mu.Unlock()

	// The result was cached above, before the dedup key is released here:
	// a duplicate submission racing this finish finds either the cached
	// result or the active job, never a gap that triggers a full rebuild.
	// The durable write rides the same window, so once the key is free the
	// result is also on disk for any future process.
	switch {
	case err == nil:
		s.met.jobsDone.Add(1)
		s.met.dijkstras.Add(res.stats.Dijkstras)
		s.met.specBatches.Add(res.stats.SpecBatches)
		s.met.specQueries.Add(res.stats.SpecQueries)
		s.met.specHits.Add(res.stats.SpecHits)
		s.met.specWaste.Add(res.stats.SpecWaste)
		s.met.specRounds.Add(res.stats.SpecRounds)
		s.met.specRequeries.Add(res.stats.SpecRequeries)
		s.lat.build.Record(buildDur)
		pstart := time.Now()
		ps := job.trace.Root().StartSpan("persist")
		s.storePut(job.key, res)
		ps.End()
		if s.store != nil {
			pd := time.Since(pstart)
			s.lat.persist.Record(pd)
			job.mu.Lock()
			job.persistDur = pd
			job.mu.Unlock()
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.met.jobsDeadline.Add(1)
	case errors.Is(err, context.Canceled):
		s.met.jobsCancelled.Add(1)
	default:
		s.met.jobsFailed.Add(1)
		if pe != nil {
			s.met.panics.Add(1)
			// Attr values are int64-only, so the panic text rides in the
			// event name.
			job.trace.Root().Event(pe.Error())
		}
	}
	job.trace.Root().End()
	s.dropActive(job)
}

// dropActive removes the job from the in-flight dedup index if it still
// owns its key.
func (s *Server) dropActive(job *Job) {
	s.mu.Lock()
	if s.active[job.key] == job {
		delete(s.active, job.key)
	}
	s.mu.Unlock()
}

// unqueue removes a cancelled job from the queue so it stops holding a
// queue slot. A no-op when a worker dequeued it first (the worker's state
// check skips it).
func (s *Server) unqueue(job *Job) {
	s.mu.Lock()
	s.queue.remove(job)
	s.mu.Unlock()
}

// submitError is a client-visible submission failure with an HTTP status.
type submitError struct {
	status int
	msg    string
	// retryAfter > 0 adds a Retry-After header with that many seconds —
	// set on a full queue, a draining server and the session cap.
	retryAfter int
}

func (e *submitError) Error() string { return e.msg }

// badSpecError is the 400 a job body that fails to resolve answers.
func badSpecError(err error) *submitError {
	return &submitError{status: http.StatusBadRequest, msg: "bad job spec: " + err.Error()}
}

// errDraining is submit's refusal of a job while the server drains; the
// caller answers it (drainError) or hedges to another replica.
var errDraining = errors.New("server draining")

// submit registers a job for a resolved body: a result in the memory cache
// produces a job born done, an in-flight duplicate that dedupLocked accepts
// is returned as-is (dedup true), a result in the disk tier produces a job
// born done, and anything else is enqueued for the worker pool. The memory cache comes first because finish caches a
// result before its job turns done and leaves the dedup index only after the
// persist: a job that is done is answered from the cache. After a memo hit
// the graph is not decoded: a memory-tier hit needs none, and the disk tier
// and a build decode it from the body.
func (s *Server) submit(in Resolution) (job *Job, dedup bool, err error) {
	if s.draining.Load() {
		return nil, false, errDraining
	}
	sub, g := in.sub, in.g
	key := sub.key
	var deadline time.Time
	if sub.spec.DeadlineMs > 0 {
		deadline = time.Now().Add(time.Duration(sub.spec.DeadlineMs) * time.Millisecond)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	res, hit := s.cache.Get(key)
	if !hit {
		if dup := s.dedupLocked(key, deadline, sub.spec.DeadlineMs); dup != nil {
			return dup, true, nil
		}
	}
	fromStore := false
	if !hit && (g == nil || s.store != nil) {
		// The disk tier and a build need the input graph. Decoding it and
		// the disk read (file I/O plus the record's spanner text and digest
		// check) run with s.mu released, so handlers, other submits, and
		// worker dequeues do not stall behind them; on re-acquire the memory
		// cache and dedup index are re-checked, so a racing identical
		// submission still never triggers a double build.
		s.mu.Unlock()
		var stored *buildResult
		if g == nil {
			_, g, err = decodeSpec(in.body)
		}
		if err == nil && s.store != nil {
			stored = s.storeGet(key, g)
		}
		s.mu.Lock()
		if err != nil {
			return nil, false, badSpecError(err)
		}
		res, hit = s.cache.Get(key)
		if !hit {
			if dup := s.dedupLocked(key, deadline, sub.spec.DeadlineMs); dup != nil {
				return dup, true, nil
			}
			if stored != nil {
				s.cache.Put(key, stored)
				res, hit, fromStore = stored, true, true
			}
		}
	}
	id := fmt.Sprintf("%sj%d", s.idPrefix, s.nextID+1)
	if hit {
		// The job is sized from the body's resolution, whose graph is
		// digest-equal to the cached result's input: a session-published
		// result would have to materialize its input to hand it over. A job
		// born done never builds, so it keeps the sizes, not the graph.
		job := newJob(id, sub, nil, time.Time{})
		job.startTrace(true, fromStore)
		job.mu.Lock()
		job.doneFromCacheLocked(res, fromStore)
		job.mu.Unlock()
		s.nextID++
		s.jobs[id] = job
		s.met.jobsSubmitted.Add(1)
		if !fromStore {
			// Disk-tier hits are counted by the store itself; cache_hits
			// stays "submissions answered from the in-memory LRU".
			s.met.cacheHits.Add(1)
		}
		return job, false, nil
	}
	// Re-checked under s.mu: StartDrain empties the queue under this same
	// lock, so a submission past the lock-free check above must not slip a
	// job into a queue no worker will ever drain.
	if s.draining.Load() {
		return nil, false, errDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return nil, false, &submitError{status: http.StatusServiceUnavailable,
			msg:        fmt.Sprintf("job queue full (%d queued)", len(s.queue)),
			retryAfter: s.queueRetryAfterLocked()}
	}
	job = newJob(id, sub, g, deadline)
	job.startTrace(false, false)
	s.queue.push(job)
	s.nextID++
	s.jobs[id] = job
	s.active[key] = job
	s.met.jobsSubmitted.Add(1)
	s.met.cacheMisses.Add(1)
	select {
	case s.wake <- struct{}{}:
	default: // wake already saturated; an awake worker will re-check
	}
	return job, false, nil
}

// dedupLocked returns the in-flight job for key that a submission with the
// given deadline (zero for none) and deadline_ms coalesces onto, counting
// the submission, or nil. No submission inherits a deadline earlier than its
// own: a queued job takes the later of the two (no deadline is the latest),
// and a job already dequeued, whose deadline is final, is joined only if its
// deadline is no earlier. Caller holds s.mu.
func (s *Server) dedupLocked(key CacheKey, deadline time.Time, deadlineMs int64) *Job {
	dup := s.active[key]
	if dup == nil {
		return nil
	}
	if !dup.deadline.IsZero() && (deadline.IsZero() || dup.deadline.Before(deadline)) {
		if dup.dequeued {
			return nil
		}
		dup.deadline, dup.deadlineMs = deadline, deadlineMs
	}
	s.met.jobsSubmitted.Add(1)
	s.met.dedups.Add(1)
	return dup
}

// drainError builds the 503 a draining server answers submissions with,
// acquiring s.mu for the progress scan.
func (s *Server) drainError() *submitError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &submitError{
		status:     http.StatusServiceUnavailable,
		msg:        "server draining",
		retryAfter: s.drainRetryAfterLocked(),
	}
}

// drainRetryAfterLocked estimates the seconds until the drain finishes from
// the running builds' own progress: for each in-flight job, the elapsed
// build time scaled by the fraction of edges still unscanned, taking the
// slowest job's estimate, clamped to [1, 60]. A build that has reported no
// progress yet is assumed to need as long again as it has already run.
// Caller holds s.mu.
func (s *Server) drainRetryAfterLocked() int {
	now := time.Now()
	var worst time.Duration
	for _, j := range s.jobs {
		j.mu.Lock()
		running := j.state == StateRunning
		started := j.startedAt
		j.mu.Unlock()
		if !running || started.IsZero() {
			continue
		}
		elapsed := now.Sub(started)
		total := int64(j.graph.NumEdges())
		scanned := j.scanned.Load()
		var rem time.Duration
		if scanned <= 0 || scanned >= total {
			rem = elapsed
		} else {
			rem = time.Duration(float64(elapsed) * float64(total-scanned) / float64(scanned))
		}
		if rem > worst {
			worst = rem
		}
	}
	sec := int(worst/time.Second) + 1
	if sec > 60 {
		sec = 60
	}
	return sec
}

// queueRetryAfterLocked estimates how long a client turned away by a full
// queue should wait: the seconds for the backlog to pass through the worker
// pool at roughly one job per worker per second, clamped to [1, 60]. Caller
// holds s.mu.
func (s *Server) queueRetryAfterLocked() int {
	return min(1+len(s.queue)/s.cfg.Workers, 60)
}

// job looks a job up by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob cancels a queued or running job; terminal jobs are left alone.
// A queued job turns cancelled immediately and its queue slot frees right
// away; a running job's context is cancelled and the worker records the
// terminal state.
func (s *Server) cancelJob(job *Job) State {
	job.mu.Lock()
	switch job.state {
	case StateQueued:
		job.cancelQueuedLocked("")
		job.mu.Unlock()
		s.unqueue(job)
		s.dropActive(job)
		s.met.jobsCancelled.Add(1)
		return StateCancelled
	case StateRunning:
		cancel := job.cancel
		job.mu.Unlock()
		cancel()
		return StateRunning
	default:
		st := job.state
		job.mu.Unlock()
		return st
	}
}
