package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// buildResult is the normalized output of any algorithm: the input graph,
// the kept input edge IDs, the build's stats, and the spanner's encoding.
// It holds no spanner graph. A result never changes, so the spanner is
// encoded once, on first use, from the input and the kept IDs: that one
// pass gives both the spanner digest a store record carries and the bytes
// of every GET /v1/jobs/{id}/spanner answer after the ID. A store-tier hit
// arrives with its encoding already made by the record check. /v1/verify
// builds a spanner graph for each call and keeps none.
//
// A session publishes its result as a core.Snapshot, and the input graph
// and kept IDs are then materialized from it once, on first use (a job's
// spanner read, /verify, seeding a session, the persist at close). Read
// them through Input and Kept; NumKept needs neither.
type buildResult struct {
	stats core.Stats
	snap  *core.Snapshot // nil for a built or stored result

	once  sync.Once
	input *graph.Graph
	kept  []int

	encOnce sync.Once
	enc     *spannerEncoding // preset by resultFromRecord, else built by encOnce
}

// spannerEncoding is a result's spanner, encoded once.
type spannerEncoding struct {
	// digest is the SHA-256 of the spanner's Graph.Encode text.
	digest string
	// tail is the spanner answer after the ID:
	// `,"spanner":"<text>","kept":[<ids>]}` and a newline
	// (appendJobAnswerTail).
	tail []byte
}

// newSpannerEncoding encodes the spanner whose Graph.Encode text is text and
// whose kept input edge IDs are kept.
func newSpannerEncoding(text []byte, kept []int) *spannerEncoding {
	sum := sha256.Sum256(text)
	// The quoted text grows by one byte per line; an ID takes at most
	// eight bytes with its comma below ten million edges.
	tail := make([]byte, 0, 32+len(text)+len(text)/8+8*len(kept))
	return &spannerEncoding{digest: hex.EncodeToString(sum[:]), tail: appendJobAnswerTail(tail, text, kept)}
}

// materialized fills input and kept from the snapshot on first use.
func (r *buildResult) materialized() *buildResult {
	r.once.Do(func() {
		if r.snap != nil {
			r.input, r.kept = r.snap.Materialize()
		}
	})
	return r
}

// Input returns the input graph.
func (r *buildResult) Input() *graph.Graph { return r.materialized().input }

// Kept returns the input edge IDs the spanner keeps, in spanner edge-ID
// order.
func (r *buildResult) Kept() []int { return r.materialized().kept }

// NumKept returns the spanner's edge count without materializing anything.
func (r *buildResult) NumKept() int {
	if r.snap != nil {
		return len(r.snap.Kept)
	}
	return len(r.kept)
}

// encoding returns the spanner's encoding, made on first use.
func (r *buildResult) encoding() *spannerEncoding {
	r.encOnce.Do(func() {
		if r.enc == nil {
			in, kept := r.Input(), r.Kept()
			r.enc = newSpannerEncoding(in.AppendSubgraph(nil, kept), kept)
		}
	})
	return r.enc
}

// spannerGraph builds the spanner as a graph: spanner edge i is input edge
// Kept()[i]. The result does not keep it.
func (r *buildResult) spannerGraph() *graph.Graph {
	in := r.Input()
	sp := graph.New(in.NumVertices())
	for _, id := range r.Kept() {
		e := in.Edge(id)
		sp.MustAddEdge(e.U, e.V, e.Weight)
	}
	return sp
}

// Job is one submitted build with its full lifecycle: queue position,
// cancellation handle, event log for streaming, and final result.
type Job struct {
	id   string
	key  CacheKey
	spec JobSpec
	// graph is the input the build runs on; a job born done never builds
	// and holds none. vertices and inputEdges size the input either way.
	graph                *graph.Graph
	vertices, inputEdges int
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

	// log is the job's event stream; retention is set when the job turns
	// terminal and starts the job's retention window.
	log       eventLog[Event]
	retention retentionClock

	mu     sync.Mutex
	state  State
	cancel context.CancelFunc
	result *buildResult
	err    error
	cached bool
	// fromStore marks a cache hit served from the durable disk tier rather
	// than the in-memory LRU.
	fromStore bool
	done      chan struct{} // closed on entering a terminal state

	// trace is the job's lifecycle trace (submit → queue-wait → build →
	// persist). It is set before the job is published and lives exactly as
	// long as the job. The Trace has its own lock; the span handles below
	// are written under j.mu.
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

func newJob(id string, sub submission, g *graph.Graph) *Job {
	every := sub.edges / 16
	if every < 1 {
		every = 1
	}
	spec := sub.spec
	j := &Job{
		id:            id,
		key:           sub.key,
		spec:          spec,
		graph:         g,
		vertices:      sub.vertices,
		inputEdges:    sub.edges,
		class:         classOf(spec.Priority),
		enqueuedAt:    time.Now(),
		progressEvery: every,
		state:         StateQueued,
		done:          make(chan struct{}),
	}
	if spec.DeadlineMs > 0 {
		j.deadline = j.enqueuedAt.Add(time.Duration(spec.DeadlineMs) * time.Millisecond)
	}
	j.log.append(Event{State: StateQueued}, false)
	return j
}

// setStateLocked transitions the job and records the transition as an
// event. The caller holds j.mu.
func (j *Job) setStateLocked(s State, e Event) {
	j.state = s
	e.State = s
	j.log.append(e, s.Terminal())
	if s.Terminal() {
		j.retention.touch()
		close(j.done)
	}
}

// cancelQueuedLocked ends a job that no worker has picked up as cancelled,
// with reason as the event's error. The caller holds j.mu.
func (j *Job) cancelQueuedLocked(reason string) {
	j.setStateLocked(StateCancelled, Event{Error: reason})
	j.queueSpan.End()
	root := j.trace.Root()
	root.SetAttr("cancelled", 1)
	root.End()
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
		j.log.append(Event{State: StateRunning, Scanned: scanned, Kept: kept}, false)
	}
	j.mu.Unlock()
}
