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
// Every shortcut in this package rests on one fact, the monotonicity behind
// the greedy's correctness argument (arXiv 1812.05778): adding edges to H
// only shrinks the set of breaking fault sets. If F stretches (u,v) in
// H' ⊇ H, then F (in EFT mode, F ∩ H) stretches it in H too, since H\F is a
// subgraph of H'\F. So a drop decided against H stays exact against every
// H' ⊇ H, a keep decided against H' stays exact against every H ⊆ H', and a
// witness found against a smaller H needs one recheck against the larger.
// The speculative engine (parallel.go) and the session repair shortcuts
// (incremental.go) are both applications of it.
//
// All builds run one scan loop (scan.run): Greedy from an empty H, the
// sessions' initial build and repairs from a kept prefix with the previous
// run's decisions at hand, and GreedyConservative with its packing count as
// the keep test.
//
// Each kept edge's witness fault set F_e is recorded: Lemma 3 turns the
// collection {(x, e) : x ∈ F_e} directly into a (k+1)-blocking set, which
// package blocking consumes.
package core

import (
	"fmt"
	"math"
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
func (s *scan) chaos(site string) {
	if s.opts.Chaos != nil {
		s.opts.Chaos(site)
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
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// SpecHitRate returns the share of speculative queries whose answer
// decided an edge: SpecHits/SpecQueries, which is 1 − SpecWaste/SpecQueries,
// or 0 when nothing was speculated. Every query discarded by a
// re-speculation round counts against it, so the rate shows how much of
// the speculation workers' effort was wasted.
func (s Stats) SpecHitRate() float64 {
	if s.SpecQueries > 0 {
		return float64(s.SpecHits) / float64(s.SpecQueries)
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
	return build(g, opts, false)
}

// build runs the scan loop over g from position 0 and an empty H: the exact
// greedy, or with conservative set GreedyConservative's packing keep test.
func build(g *graph.Graph, opts Options, conservative bool) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := newScan(graph.New(g.NumVertices()), opts, g.NumEdges())
	if err != nil {
		return nil, err
	}
	if conservative {
		s.opts.Parallelism = 0
		s.test = func(e graph.Edge) (bool, error) {
			// f+1 disjoint detours make the edge provably safe to drop.
			count, err := s.live.CountDisjointShortPaths(e.U, e.V, opts.Stretch*e.Weight, opts.Faults+1)
			return count <= opts.Faults, err
		}
	} else {
		s.witness = make(map[int][]int)
	}
	if err := s.run(g.EdgesByWeight()); err != nil {
		return nil, err
	}

	res := &Result{
		Input:   g,
		Spanner: s.h,
		Kept:    make([]int, len(s.kept)),
		KeptSet: bitset.New(g.NumEdges()),
		Witness: s.witness,
		Mode:    opts.Mode,
		Stretch: opts.Stretch,
		Faults:  opts.Faults,
		Stats:   s.stats,
	}
	for i, e := range s.kept {
		res.Kept[i] = e.ID
		res.KeptSet.Add(e.ID)
	}
	// Fold the per-goroutine oracle counters into the run's Stats. Every
	// speculative pass joins its workers before the scan moves on, so every
	// counter below is quiescent: each oracle is read exactly once, after
	// its last query.
	for _, o := range append([]*fault.Oracle{s.live}, s.workers...) {
		res.Stats.OracleCalls += o.Calls()
		res.Stats.Dijkstras += o.Dijkstras()
	}
	if conservative {
		res.Stats.OracleCalls = int64(res.Stats.EdgesScanned) // one packing per edge
	}
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// validate is the options check shared by Greedy, GreedyConservative and
// NewIncremental.
func (o Options) validate() error {
	if o.Stretch < 1 || math.IsInf(o.Stretch, 0) || math.IsNaN(o.Stretch) {
		return fmt.Errorf("core: stretch must be a finite number >= 1, got %v", o.Stretch)
	}
	if o.Faults < 0 {
		return fmt.Errorf("core: faults must be >= 0, got %d", o.Faults)
	}
	if o.Mode != fault.Vertices && o.Mode != fault.Edges {
		return fmt.Errorf("core: invalid fault mode %d", int(o.Mode))
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: parallelism must be >= 0, got %d", o.Parallelism)
	}
	return nil
}

// scan is the greedy's one scan loop and its state: the kept spanner H, the
// live oracle bound to it, and how each edge is decided. Greedy,
// GreedyConservative and every Incremental build and repair run it.
type scan struct {
	opts       Options
	oracleOpts fault.Options
	h          *graph.Graph
	live       *fault.Oracle
	// kept lists H's edges as scanned: H's edge i is kept[i].
	kept []graph.Edge
	// witness, if non-nil, records each kept edge's fault set F_e by edge ID.
	witness map[int][]int
	// test, if non-nil, replaces the exact fault-set search as the keep test.
	test func(e graph.Edge) (bool, error)
	// prior, if non-nil, holds a session's previous decisions over the
	// scanned edges for the monotonicity shortcuts.
	prior *repair
	// stats counts the current run's scanned edges and speculation.
	stats Stats
	// pos indexes the run's current edge; after a sequential run fails, the
	// edge at pos is the first one whose decision was not committed.
	pos int

	// workers are the per-goroutine speculation oracles (Parallelism > 1),
	// bound to H like live itself. results and pending are speculateBatch's
	// scratch, reused across batches.
	workers []*fault.Oracle
	results []specResult
	pending []int
}

// newScan binds a scan to the kept prefix h, with a live oracle sized for
// edgeCap edge IDs.
func newScan(h *graph.Graph, opts Options, edgeCap int) (*scan, error) {
	oracleOpts := opts.Oracle
	oracleOpts.EdgeCapacity = edgeCap
	if opts.Chaos != nil {
		chaos := opts.Chaos
		oracleOpts.Chaos = func() { chaos(ChaosSiteOracle) }
	}
	live, err := fault.NewOracle(h, opts.Mode, oracleOpts)
	if err != nil {
		return nil, err
	}
	return &scan{opts: opts, oracleOpts: oracleOpts, h: h, live: live}, nil
}

// run walks edges in scan order over H, deciding each one. Same-weight runs
// go to the speculative engine when Parallelism > 1; every other edge is
// decided inline.
func (s *scan) run(edges []graph.Edge) error {
	s.stats = Stats{}
	for len(s.workers) < s.opts.Parallelism {
		o, err := fault.NewOracle(s.h, s.opts.Mode, s.oracleOpts)
		if err != nil {
			return err
		}
		s.workers = append(s.workers, o)
	}
	for s.pos = 0; s.pos < len(edges); {
		end := s.pos + 1
		if s.opts.Parallelism > 1 {
			for end < len(edges) && edges[end].Weight == edges[s.pos].Weight {
				end++
			}
			if end-s.pos >= minSpeculativeBatch {
				if err := s.speculateBatch(edges[s.pos:end]); err != nil {
					return err
				}
				s.pos = end
				continue
			}
		}
		for ; s.pos < end; s.pos++ {
			if err := s.step(); err != nil {
				return err
			}
			if err := s.decide(edges[s.pos], nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// step fires the Progress hook and counts the edge about to be decided.
func (s *scan) step() error {
	if s.opts.Progress != nil {
		if err := s.opts.Progress(s.stats.EdgesScanned, len(s.kept)); err != nil {
			return err
		}
	}
	s.stats.EdgesScanned++
	return nil
}

// decide settles edge e against the current H: by a monotonicity shortcut
// when the prior decisions allow one, otherwise by the keep test — the exact
// fault-set search, trying the hint witness first when one is given.
func (s *scan) decide(e graph.Edge, hint []int) error {
	keep, known := false, false
	if s.prior != nil {
		keep, known = s.prior.recall(e)
	}
	var witness []int
	if !known {
		var err error
		if s.test != nil {
			keep, err = s.test(e)
		} else {
			witness, keep, err = s.live.FindFaultSetHinted(e.U, e.V, s.opts.Stretch*e.Weight, s.opts.Faults, hint)
		}
		if err != nil {
			return fmt.Errorf("core: edge %d: %w", e.ID, err)
		}
	}
	if keep {
		s.commit(e, witness)
	}
	if s.prior != nil {
		s.prior.settle(e, keep)
	}
	return nil
}

// commit appends e to H with its witness fault set (H edge IDs in edge mode,
// translated to scanned edge IDs here). The witness slice is owned by the
// scan after this call.
func (s *scan) commit(e graph.Edge, witness []int) {
	s.h.MustAddEdge(e.U, e.V, e.Weight)
	s.kept = append(s.kept, e)
	if s.witness == nil {
		return
	}
	if s.opts.Mode == fault.Edges {
		for i, hid := range witness {
			witness[i] = s.kept[hid].ID
		}
	}
	s.witness[e.ID] = witness
}

// emitPhase delivers one phase-boundary event to the Options.Phase hook.
// Only ever called from the scan goroutine.
func (s *scan) emitPhase(info PhaseInfo) {
	if s.opts.Phase != nil {
		s.opts.Phase(info)
	}
}

// GreedyVFT is Greedy with vertex faults (the paper's headline setting).
func GreedyVFT(g *graph.Graph, stretch float64, faults int) (*Result, error) {
	return Greedy(g, Options{Stretch: stretch, Faults: faults, Mode: fault.Vertices})
}

// GreedyEFT is Greedy with edge faults.
func GreedyEFT(g *graph.Graph, stretch float64, faults int) (*Result, error) {
	return Greedy(g, Options{Stretch: stretch, Faults: faults, Mode: fault.Edges})
}
