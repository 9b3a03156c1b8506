package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/obs"
)

// State is the lifecycle state of a job.
type State string

// Job lifecycle states. A job moves queued -> running -> one of the four
// terminal states; cache hits are born done.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateDeadline marks a job whose JobSpec.DeadlineMs expired before the
	// build finished — distinct from cancelled (client's choice) and failed
	// (build error) so deadline misses are observable as their own outcome.
	StateDeadline State = "deadline_exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateDeadline
}

// Algorithm names accepted in JobSpec.Algorithm.
const (
	AlgoGreedy       = "greedy"       // exact fault-tolerant greedy (the paper's Algorithm 1)
	AlgoConservative = "conservative" // polynomial-time conservative greedy
	AlgoUnionEFT     = "union-eft"    // union-of-spanners EFT baseline
	AlgoSamplingVFT  = "sampling-vft" // Dinitz–Krauthgamer-style sampling VFT baseline
)

// JobSpec is the client-visible description of one spanner-build job, as
// submitted to POST /v1/jobs. Exactly one of Graph and Generator must be
// set.
type JobSpec struct {
	// Graph is the input graph inline, in the Graph.Encode text format.
	Graph string `json:"graph,omitempty"`
	// Generator names a server-side graph generator instead.
	Generator *GeneratorSpec `json:"generator,omitempty"`
	// Stretch is the spanner parameter k >= 1.
	Stretch float64 `json:"stretch"`
	// Faults is the fault-tolerance parameter f >= 0.
	Faults int `json:"faults"`
	// Mode is "vertex" (default) or "edge".
	Mode string `json:"mode,omitempty"`
	// Algorithm selects the construction; default "greedy".
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives randomized algorithms (sampling-vft). Deterministic
	// algorithms ignore it, and it does not affect their cache key.
	Seed int64 `json:"seed,omitempty"`
	// Parallelism sets the greedy's speculative edge-batch worker count
	// (core.Options.Parallelism); 0 and 1 select the sequential scan. The
	// kept-edge set is identical at every setting, so it does not affect the
	// cache key: a result built at any parallelism serves them all.
	Parallelism int `json:"parallelism,omitempty"`
	// Pipeline is accepted and ignored. It stays in the wire format with its
	// range check (0..64, nonzero only with Parallelism > 1) so that every
	// existing client's request is accepted or rejected exactly as before.
	// It is not in the cache key.
	Pipeline int `json:"pipeline,omitempty"`
	// Priority is the scheduling class: "high", "normal" (the default), or
	// "low". It orders a saturated pool's dequeues and selects the per-class
	// queue cap; the result is identical at every priority, so it does not
	// affect the cache key (and a duplicate submission coalesces onto the
	// in-flight job whatever either priority says).
	Priority Priority `json:"priority,omitempty"`
	// DeadlineMs is the job's end-to-end deadline in milliseconds from
	// submission, covering queue wait plus build. Zero means no deadline.
	// The deadline propagates as a context deadline through the build, a
	// job that exceeds it lands in the "deadline_exceeded" terminal state,
	// and submissions whose deadline is already infeasible given the
	// class's recent p90 queue wait are refused up front with 429. Like
	// Priority it never affects the cache key.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// GeneratorSpec names a server-side graph generator and its parameters.
type GeneratorSpec struct {
	// Name is one of "complete", "grid", "random", "geometric".
	Name string `json:"name"`
	// N is the vertex count (complete, random, geometric).
	N int `json:"n,omitempty"`
	// M is the edge count (random).
	M int `json:"m,omitempty"`
	// Rows and Cols size the grid generator.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Radius is the connection radius (geometric).
	Radius float64 `json:"radius,omitempty"`
	// Seed drives the randomized generators (random, geometric).
	Seed int64 `json:"seed,omitempty"`
}

// Event is one NDJSON record of a job's GET /v1/jobs/{id}/events stream.
type Event struct {
	Seq     int    `json:"seq"`
	State   State  `json:"state"`
	Scanned int    `json:"scanned"`
	Kept    int    `json:"kept"`
	Error   string `json:"error,omitempty"`
}

// buildResult is the normalized output of any algorithm: enough to encode
// the spanner, report instrumentation, and re-verify the result later.
type buildResult struct {
	input   *graph.Graph
	spanner *graph.Graph
	kept    []int
	stats   core.Stats
}

// Job is one submitted build with its full lifecycle: queue position,
// cancellation handle, event log for streaming, and final result.
type Job struct {
	id    string
	key   CacheKey
	spec  JobSpec
	graph *graph.Graph
	// class is the scheduling class derived from spec.Priority; enqueuedAt
	// feeds the per-class queue-age gauge.
	class      class
	enqueuedAt time.Time
	// deadline is the absolute deadline derived from spec.DeadlineMs at
	// submission (zero = none). Immutable after newJob.
	deadline time.Time

	// scanned mirrors the build's latest progress-hook edge count without
	// taking j.mu — the drain Retry-After estimate reads it from the
	// submit path while the build is writing events.
	scanned atomic.Int64

	// progressEvery throttles running-state events to one per this many
	// scanned edges.
	progressEvery int

	mu      sync.Mutex
	state   State
	events  []Event
	updated chan struct{} // closed and replaced on every event append
	cancel  context.CancelFunc
	result  *buildResult
	err     error
	cached  bool
	// fromStore marks a cache hit served from the durable disk tier rather
	// than the in-memory LRU.
	fromStore bool
	doneAt    time.Time     // when the job entered a terminal state; GC clock
	done      chan struct{} // closed on entering a terminal state

	// trace is the job's lifecycle trace (submit → queue-wait → build →
	// persist). Nil after the janitor drops it (trace retention can be
	// shorter than job retention) — handlers must tolerate that. The Trace
	// has its own lock; the span handles below are written under j.mu.
	trace     *obs.Trace
	queueSpan obs.Span
	buildSpan obs.Span
	// Phase durations for the status endpoint, recorded as each lifecycle
	// stage completes.
	queueWait  time.Duration
	buildDur   time.Duration
	persistDur time.Duration
	startedAt  time.Time // when a worker began the build
}

// startTrace opens the job's lifecycle trace. For queued jobs the queue-wait
// span opens immediately; born-done cache hits get a closed root annotated
// with the hit instead (there is no queue or build to trace). Called before
// the job is published, so no lock is needed.
func (j *Job) startTrace(cached, fromStore bool) {
	j.trace = obs.NewTrace(j.id, "job")
	root := j.trace.Root()
	if !cached {
		j.queueSpan = root.StartSpan("queue-wait")
		return
	}
	root.SetAttr("cached", 1)
	if fromStore {
		root.SetAttr("from_store", 1)
	}
	root.End()
}

// traceSnapshot returns the job's trace, or nil when it was never started or
// already dropped by the janitor.
func (j *Job) traceSnapshot() *obs.TraceSnapshot {
	j.mu.Lock()
	tr := j.trace
	j.mu.Unlock()
	if tr == nil {
		return nil
	}
	snap := tr.Snapshot()
	return &snap
}

// dropTrace releases the job's trace (retention sweep).
func (j *Job) dropTrace() {
	j.mu.Lock()
	j.trace = nil
	j.queueSpan, j.buildSpan = obs.Span{}, obs.Span{}
	j.mu.Unlock()
}

func newJob(id string, key CacheKey, spec JobSpec, g *graph.Graph) *Job {
	every := 1
	if g != nil {
		if every = g.NumEdges() / 16; every < 1 {
			every = 1
		}
	}
	j := &Job{
		id:            id,
		key:           key,
		spec:          spec,
		graph:         g,
		class:         classOf(spec.Priority),
		enqueuedAt:    time.Now(),
		progressEvery: every,
		state:         StateQueued,
		updated:       make(chan struct{}),
		done:          make(chan struct{}),
	}
	if spec.DeadlineMs > 0 {
		j.deadline = j.enqueuedAt.Add(time.Duration(spec.DeadlineMs) * time.Millisecond)
	}
	j.appendEventLocked(Event{State: StateQueued})
	return j
}

// appendEventLocked stamps and appends e and wakes event streamers. The
// caller holds j.mu (or, in newJob, exclusive ownership).
func (j *Job) appendEventLocked(e Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	close(j.updated)
	j.updated = make(chan struct{})
}

// setStateLocked transitions the job and records the transition as an
// event. The caller holds j.mu.
func (j *Job) setStateLocked(s State, e Event) {
	j.state = s
	e.State = s
	j.appendEventLocked(e)
	if s.Terminal() {
		j.doneAt = time.Now()
		close(j.done)
	}
}

// progress records a throttled running-state event; it is the core.Options
// Progress hook's reporting half.
func (j *Job) progress(scanned, kept int) {
	j.scanned.Store(int64(scanned))
	if scanned%j.progressEvery != 0 {
		return
	}
	j.mu.Lock()
	if j.state == StateRunning {
		j.appendEventLocked(Event{State: StateRunning, Scanned: scanned, Kept: kept})
	}
	j.mu.Unlock()
}

// eventsSince returns a copy of the events from index from on, a channel
// that is closed when more arrive, and whether the job is terminal.
func (j *Job) eventsSince(from int) (evs []Event, updated <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append([]Event(nil), j.events[from:]...)
	}
	return evs, j.updated, j.state.Terminal()
}
