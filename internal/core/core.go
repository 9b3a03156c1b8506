// Package core implements the paper's primary contribution: the vertex- and
// edge-fault-tolerant greedy spanner algorithm (Algorithm 1 of Bodwin–Patel,
// PODC 2019).
//
// The algorithm scans edges by increasing weight and keeps edge (u,v) iff
// some fault set F with |F| <= f makes dist_{H\F}(u,v) > k·w(u,v) in the
// spanner H built so far. Correctness of the output as an f-fault-tolerant
// k-spanner is immediate (if an edge is not kept, every fault set leaves a
// within-stretch detour); the paper's contribution is the size analysis,
// which this repository verifies empirically in experiments E1–E6.
//
// Each kept edge's witness fault set F_e is recorded: Lemma 3 turns the
// collection {(x, e) : x ∈ F_e} directly into a (k+1)-blocking set, which
// package blocking consumes.
package core

import (
	"fmt"
	"time"

	"github.com/ftspanner/ftspanner/internal/bitset"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// Options configures a greedy run.
type Options struct {
	// Stretch is the spanner parameter k >= 1 of Definition 1.
	Stretch float64
	// Faults is the fault-tolerance parameter f >= 0 of Definition 2.
	Faults int
	// Mode selects vertex faults (VFT) or edge faults (EFT).
	Mode fault.Mode
	// Oracle tunes the fault-set search (pruning/memoization ablations).
	// Oracle.EdgeCapacity is set internally.
	Oracle fault.Options
	// Progress, if non-nil, is invoked before each edge scan with the
	// number of edges scanned and kept so far. Returning a non-nil error
	// aborts the build and the greedy returns that error unchanged — the
	// hook is how long-running builds report progress and honor context
	// cancellation without the core depending on context directly. Under
	// Parallelism the hook still fires once per edge, in scan order, from
	// the commit goroutine; a batch's speculative oracle queries may run
	// before its edges' hooks, so cancellation latency is one batch.
	Progress func(scanned, kept int) error
	// Parallelism enables speculative edge-batch parallelism: consecutive
	// same-weight edges are oracle-queried concurrently by this many workers
	// against the spanner so far, then validated and committed sequentially
	// (see parallel.go). 0 and 1 mean the plain sequential scan. The
	// kept-edge set is identical at every setting; only Stats (work
	// counters, witnesses found) may differ. GreedyConservative ignores this
	// field.
	Parallelism int
	// Phase, if non-nil, receives build-phase boundary events from the
	// speculative engine: a batch handed to the workers, a re-speculation
	// round resolved, a batch fully committed. Always called from the scan
	// goroutine (never concurrently), in event order, and only under
	// Parallelism > 1 — the sequential scan has no internal phases.
	// The hook is observational: it cannot abort the build (that is
	// Progress's job), and the greedy's decisions are identical with and
	// without it.
	Phase func(PhaseInfo)
	// Chaos, if non-nil, is invoked at fault-injection sites with the site
	// name: "oracle-query" (inside every fault-oracle search, any
	// goroutine), "spec-worker" (once per worker goroutine of a batch's
	// first speculative pass), and "respec-round" (once per worker
	// goroutine of each re-speculation round). A test hook panicking here
	// exercises the engine's panic containment: speculation goroutines
	// recover into a *PanicError, so the build fails cleanly instead of
	// killing the process. Nil in production.
	Chaos func(site string)
}

// Chaos site names passed to Options.Chaos.
const (
	ChaosSiteOracle = "oracle-query"
	ChaosSiteWorker = "spec-worker"
	ChaosSiteRespec = "respec-round"
)

// PanicError is a panic recovered inside one of the greedy's speculation
// goroutines, surfaced as the build error: the panic value and stack are
// preserved so the caller can report them without the process dying.
type PanicError struct {
	// Site is the chaos-site name of the goroutine that panicked.
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Site, e.Value)
}

// chaos fires the Options.Chaos hook, if any, for site.
func (b *builder) chaos(site string) {
	if b.opts.Chaos != nil {
		b.opts.Chaos(site)
	}
}

// Phase names delivered in PhaseInfo.Phase.
const (
	// PhaseBatchSpeculate fires when a same-weight batch is fanned out to
	// the speculation workers.
	PhaseBatchSpeculate = "batch-speculate"
	// PhaseBatchCommit fires when a batch's commit walk (including its
	// re-speculation rounds) completes.
	PhaseBatchCommit = "batch-commit"
	// PhaseRespecRound fires after each parallel re-speculation round over a
	// batch's invalidated edges.
	PhaseRespecRound = "respec-round"
)

// PhaseInfo describes one build-phase boundary, delivered to Options.Phase.
// Unused fields are zero for a given phase.
type PhaseInfo struct {
	// Phase is one of the Phase* constants.
	Phase string
	// Batch is the speculative batch ordinal, in scan order; every event of
	// one batch carries the same ordinal.
	Batch int
	// Edges is the batch length (batch phases) or the number of edges
	// re-queried (PhaseRespecRound).
	Edges int
	// Kept is the total kept-edge count when the event fired.
	Kept int
	// Pending is the still-unresolved edge count after a re-speculation
	// round (PhaseRespecRound only).
	Pending int
	// WitnessHits is the live oracle's cumulative witness-cache hit count —
	// the "witness-cache episode" marker: a trace can read cache warmth off
	// consecutive events' deltas.
	WitnessHits int64
}

// Stats captures instrumentation of a run.
type Stats struct {
	// EdgesScanned is the number of input edges processed (all of them).
	EdgesScanned int
	// OracleCalls is the number of fault-set searches: one per edge for a
	// sequential build; under Parallelism > 1 it also counts speculative
	// batch queries and re-queries of invalidated speculation, so it exceeds
	// EdgesScanned by roughly SpecWaste.
	OracleCalls int64
	// Dijkstras is the total number of shortest-path computations inside
	// the oracle — the honest work unit for runtime experiments (E7).
	Dijkstras int64
	// WitnessHits counts oracle queries answered by revalidating a cached
	// witness fault set instead of running the exponential branching.
	WitnessHits int64
	// WitnessMisses counts oracle queries where the witness cache was
	// consulted but branching still ran. Queries the cache never applies to
	// (no short detour, zero budget, or refuted by the packing bound) count
	// neither way, so hits/(hits+misses) is the cache's true success rate.
	WitnessMisses int64
	// SpecBatches counts same-weight edge batches that were speculated on
	// concurrently (Parallelism > 1 only).
	SpecBatches int64
	// SpecQueries counts speculative oracle queries issued by the batch
	// workers, re-speculation rounds included.
	SpecQueries int64
	// SpecHits counts batch edges whose speculative answer was committed
	// without re-running the full oracle query: exact drops, commits against
	// an unchanged spanner, and witnesses salvaged by one-Dijkstra
	// revalidation.
	SpecHits int64
	// SpecWaste counts speculative answers that were invalidated by an
	// earlier commit and discarded — each such edge re-enters a
	// re-speculation round (or a live re-query when it is the round's sole
	// straggler). The price of speculation: SpecHits + SpecWaste ==
	// SpecQueries always.
	SpecWaste int64
	// SpecRounds counts re-speculation rounds: parallel re-query passes over
	// a batch's invalidated edges against the grown spanner (the all-equal-
	// weight worst case resolves through these instead of a sequential
	// fallback).
	SpecRounds int64
	// SpecRequeries counts invalidated edges resolved by a single live
	// sequential re-query because they were the only straggler left — a
	// worker dispatch would cost more than the one query.
	SpecRequeries int64
	// WitnessSeedTries/WitnessSeedHits count the oracle's structural seed
	// trials (singleton fault candidates read off the current path's
	// structure) and the queries they answered; seed hits are a subset of
	// WitnessHits.
	WitnessSeedTries int64
	WitnessSeedHits  int64
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// SpecHitRate returns the fraction of speculative-path edges whose final
// decision came from a speculative answer rather than a live
// sequential re-query: SpecHits/(SpecHits+SpecRequeries), or 0 when no
// edges went through the speculative path. Since every speculative-path
// edge is decided exactly once, this is the parallelizable fraction of the
// scan — the number that turns into wall-clock speedup on multi-core hosts.
// Per-QUERY efficiency (answers used vs discarded across re-speculation
// rounds) is SpecHits/SpecQueries, reconstructible from the counters.
func (s Stats) SpecHitRate() float64 {
	if total := s.SpecHits + s.SpecRequeries; total > 0 {
		return float64(s.SpecHits) / float64(total)
	}
	return 0
}

// WitnessHitRate returns WitnessHits/(WitnessHits+WitnessMisses), or 0 when
// the witness cache was never consulted.
func (s Stats) WitnessHitRate() float64 {
	if total := s.WitnessHits + s.WitnessMisses; total > 0 {
		return float64(s.WitnessHits) / float64(total)
	}
	return 0
}

// Result is the output of a fault-tolerant greedy run.
type Result struct {
	// Input is the graph the spanner was built from.
	Input *graph.Graph
	// Spanner is H, on the same vertex set; its edge i corresponds to input
	// edge Kept[i].
	Spanner *graph.Graph
	// Kept lists input edge IDs retained, in spanner edge-ID order.
	Kept []int
	// KeptSet is membership over input edge IDs.
	KeptSet *bitset.Set
	// Witness maps each kept input edge ID to the fault set F_e found when
	// the edge was added: vertex IDs in VFT mode; input edge IDs in EFT
	// mode. An empty set means the edge was needed even with no faults.
	Witness map[int][]int
	// Mode, Stretch and Faults echo the options of the run.
	Mode    fault.Mode
	Stretch float64
	Faults  int
	// Stats holds instrumentation counters.
	Stats Stats
}

// Greedy runs the fault-tolerant greedy algorithm on g. With
// Options.Parallelism > 1 the edge scan speculates over same-weight batches
// on a worker pool; the kept-edge set is guaranteed identical to the
// sequential scan's (see parallel.go for the argument).
func Greedy(g *graph.Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if opts.Stretch < 1 {
		return nil, fmt.Errorf("core: stretch must be >= 1, got %v", opts.Stretch)
	}
	if opts.Faults < 0 {
		return nil, fmt.Errorf("core: faults must be >= 0, got %d", opts.Faults)
	}
	if opts.Mode != fault.Vertices && opts.Mode != fault.Edges {
		return nil, fmt.Errorf("core: invalid fault mode %d", int(opts.Mode))
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("core: parallelism must be >= 0, got %d", opts.Parallelism)
	}

	start := time.Now()
	h := graph.New(g.NumVertices())
	oracleOpts := opts.Oracle
	oracleOpts.EdgeCapacity = g.NumEdges()
	if opts.Chaos != nil {
		chaos := opts.Chaos
		oracleOpts.Chaos = func() { chaos(ChaosSiteOracle) }
	}
	oracle, err := fault.NewOracle(h, opts.Mode, oracleOpts)
	if err != nil {
		return nil, err
	}

	b := &builder{
		g:          g,
		h:          h,
		opts:       opts,
		oracleOpts: oracleOpts,
		live:       oracle,
		res: &Result{
			Input:   g,
			Spanner: h,
			KeptSet: bitset.New(g.NumEdges()),
			Witness: make(map[int][]int),
			Mode:    opts.Mode,
			Stretch: opts.Stretch,
			Faults:  opts.Faults,
		},
		hToInput: make([]int, 0, g.NumEdges()),
	}

	edges := g.EdgesByWeight()
	if opts.Parallelism > 1 {
		err = b.scanParallel(edges)
	} else {
		err = b.scanSequential(edges)
	}
	if err != nil {
		return nil, err
	}

	// Fold the per-goroutine oracle counters into the run's Stats. Every
	// speculative pass joins its workers before the scan moves on, so every
	// counter below is quiescent: each oracle is read exactly once, after
	// its last query.
	res := b.res
	for _, o := range append([]*fault.Oracle{b.live}, b.workers...) {
		res.Stats.OracleCalls += o.Calls()
		res.Stats.Dijkstras += o.Dijkstras()
		res.Stats.WitnessHits += o.WitnessHits()
		res.Stats.WitnessMisses += o.WitnessMisses()
		res.Stats.WitnessSeedTries += o.WitnessSeedTries()
		res.Stats.WitnessSeedHits += o.WitnessSeedHits()
	}
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// builder carries one greedy run's mutable state: the growing spanner, the
// live oracle bound to it, and the result being assembled. The sequential
// and parallel scans share its bookkeeping so they cannot diverge on
// anything but scheduling.
type builder struct {
	g          *graph.Graph
	h          *graph.Graph
	opts       Options
	oracleOpts fault.Options
	live       *fault.Oracle
	res        *Result
	hToInput   []int // spanner edge ID -> input edge ID

	// workers are the per-goroutine speculation oracles (Parallelism > 1),
	// bound to the live spanner like live itself; their counters fold into
	// Stats at the end of the run. results and pending are speculateBatch's
	// scratch, reused across batches.
	workers []*fault.Oracle
	results []specResult
	pending []int
}

// emitPhase delivers one phase-boundary event to the Options.Phase hook.
// Only ever called from the scan goroutine.
func (b *builder) emitPhase(info PhaseInfo) {
	if b.opts.Phase != nil {
		b.opts.Phase(info)
	}
}

func (b *builder) scanSequential(edges []graph.Edge) error {
	for _, e := range edges {
		if err := b.step(); err != nil {
			return err
		}
		if err := b.scanOne(e); err != nil {
			return err
		}
	}
	return nil
}

// step fires the Progress hook and counts the edge about to be decided.
func (b *builder) step() error {
	if b.opts.Progress != nil {
		if err := b.opts.Progress(b.res.Stats.EdgesScanned, len(b.res.Kept)); err != nil {
			return err
		}
	}
	b.res.Stats.EdgesScanned++
	return nil
}

// scanOne decides one edge exactly with the live oracle against the current
// spanner — the sequential hot path, and the parallel path's fallback for
// invalidated speculation.
func (b *builder) scanOne(e graph.Edge) error {
	witness, found, err := b.live.FindFaultSet(e.U, e.V, b.opts.Stretch*e.Weight, b.opts.Faults)
	if err != nil {
		return fmt.Errorf("core: edge %d: %w", e.ID, err)
	}
	if found {
		b.commit(e, witness)
	}
	return nil
}

// commit keeps edge e with the given witness fault set (spanner IDs in edge
// mode; translated to input IDs here). The witness slice is owned by the
// builder after this call.
func (b *builder) commit(e graph.Edge, witness []int) {
	b.h.MustAddEdge(e.U, e.V, e.Weight)
	b.hToInput = append(b.hToInput, e.ID)
	b.res.Kept = append(b.res.Kept, e.ID)
	b.res.KeptSet.Add(e.ID)
	if b.opts.Mode == fault.Edges {
		// The oracle speaks spanner edge IDs; translate to input IDs.
		for i, hid := range witness {
			witness[i] = b.hToInput[hid]
		}
	}
	b.res.Witness[e.ID] = witness
}

// GreedyVFT is Greedy with vertex faults (the paper's headline setting).
func GreedyVFT(g *graph.Graph, stretch float64, faults int) (*Result, error) {
	return Greedy(g, Options{Stretch: stretch, Faults: faults, Mode: fault.Vertices})
}

// GreedyEFT is Greedy with edge faults.
func GreedyEFT(g *graph.Graph, stretch float64, faults int) (*Result, error) {
	return Greedy(g, Options{Stretch: stretch, Faults: faults, Mode: fault.Edges})
}
