// Package fault implements the decision oracle at the heart of the paper's
// FT greedy algorithm (Algorithm 1): given the spanner built so far H, an
// edge (u,v) and a budget f, does there exist a fault set F (vertices for
// VFT, edges for EFT) with |F| <= f such that dist_{H\F}(u,v) > k·w(u,v)?
//
// The oracle answers exactly, by the classic hitting-set branching: find any
// u-v path of weight <= bound avoiding the faults chosen so far; if none
// exists the chosen faults are a witness; otherwise every witness must hit
// that path, so branch on its internal vertices (VFT) or edges (EFT). The
// running time is exponential in f with base bounded by the path length —
// exactly the "naive implementation is exponential in f" the paper's open
// question refers to; experiment E7 measures it.
//
// Every bounded reachability test of the exact search runs the
// bidirectional search (sssp.RunReachBidi). Two accelerations, each with a
// switch in Options, preserve exactness:
//
//   - pruning: if more than f pairwise internally-disjoint short paths
//     survive, no budget-f fault set can hit them all, so the branch fails
//     without recursing (greedy path packing gives the disjoint paths). Any
//     disjoint set of within-bound paths refutes the branch, so which paths
//     the bidirectional search finds does not matter. The conservative
//     greedy's CountDisjointShortPaths stays unidirectional, because there
//     the count itself is the decision;
//   - memoization: fault sets are hashed order-independently so
//     permutations of one set are explored once per query.
//
// There is no cache of earlier witnesses: at small f the branching finds a
// witness for about the price of revalidating a cached one, so a cache
// saves no Dijkstras (README, "No witness cache"). A caller holding a
// candidate witness passes it to FindFaultSetHinted instead.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ftspanner/ftspanner/internal/bitset"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/sssp"
)

// constructions counts NewOracle calls process-wide. Incremental-engine
// tests and benchmarks read it to prove that delta batches reuse the
// retained oracle instead of constructing a fresh one.
var constructions atomic.Int64

// Constructions returns the process-wide NewOracle call count.
func Constructions() int64 { return constructions.Load() }

// Mode selects the kind of faults to search over.
type Mode int

const (
	// Vertices: fault sets are vertices, never including the endpoints of
	// the query pair (matching Definition 2's VFT and Definition 3's
	// requirement v ∉ e).
	Vertices Mode = iota + 1
	// Edges: fault sets are edges of the searched graph.
	Edges
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Vertices:
		return "vertex"
	case Edges:
		return "edge"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options tunes the oracle. The zero value enables every acceleration; the
// two Disable switches are ablations, and neither changes a verdict. With
// both set the oracle is the naive reference the differential tests use.
type Options struct {
	// DisablePruning turns off the disjoint-path packing bound (experiment
	// E7 and the ablation benchmarks measure the exponential search
	// without it).
	DisablePruning bool
	// DisableMemo turns off fault-set memoization.
	DisableMemo bool
	// EdgeCapacity sizes the edge fault mask. The searched graph may grow
	// (the greedy adds edges between queries); set this to the maximum edge
	// ID it will ever hold. Zero means the graph's current edge count.
	EdgeCapacity int
	// ObserveQuery, if non-nil, receives the wall-clock latency of a sampled
	// subset of FindFaultSet queries (one in querySampleEvery, so the two
	// time.Now calls stay amortized well under the cost of a single bounded
	// Dijkstra). The greedy's worker oracles all carry the same options, so
	// the hook MUST be safe for concurrent use; ftserve feeds a concurrent
	// histogram. Hinted queries answered purely by witness revalidation are
	// not sampled — they are one Dijkstra by construction, and including
	// them would make the distribution bimodal in a way that tracks
	// speculation luck, not search cost.
	ObserveQuery func(d time.Duration)
	// Chaos, if non-nil, is invoked at the top of every FindFaultSet — a
	// test-only fault-injection point that can panic to exercise the
	// caller's panic containment. Like ObserveQuery it must be safe for
	// concurrent use (every worker oracle carries the same options). Nil in
	// production.
	Chaos func()
}

// querySampleEvery is the ObserveQuery sampling stride: every n-th
// FindFaultSet call is timed.
const querySampleEvery = 8

// memoMaxEntries bounds the generation-stamped memo table. The table is
// never wiped per query (generation stamps invalidate stale entries for
// free); this cap only stops a pathological build from accumulating
// unbounded memory, by re-allocating the map once it grows past the cap.
const memoMaxEntries = 1 << 20

// Oracle searches for fault sets on a fixed (but growable) graph. It reuses
// all internal state across queries; it is not safe for concurrent use.
type Oracle struct {
	g      *graph.Graph
	mode   Mode
	opts   Options
	solver *sssp.Solver

	forbiddenV *bitset.Set
	forbiddenE *bitset.Set

	// Scratch for the disjoint-path pruning bound.
	packV   *bitset.Set
	packE   *bitset.Set
	packBuf []int // path scratch for packPaths

	// Memoization of explored fault sets: an order-independent 64-bit hash
	// of the chosen set (XOR of per-element mixes, maintained incrementally
	// by push/pop) mapped to the generation that last explored it. Queries
	// bump gen instead of wiping the table, so stale entries cost nothing.
	memo       map[uint64]uint64
	memoGen    uint64
	chosen     []int // currently chosen fault elements
	chosenHash uint64

	// cand[d] is the branching-candidate scratch buffer for search depth d,
	// so the recursion allocates nothing after warm-up.
	cand [][]int

	calls     int64
	dijkstras int64
}

// NewOracle returns an oracle over g in the given mode. The graph may gain
// edges between queries (the FT greedy relies on this) as long as the total
// stays within Options.EdgeCapacity.
func NewOracle(g *graph.Graph, mode Mode, opts Options) (*Oracle, error) {
	if mode != Vertices && mode != Edges {
		return nil, fmt.Errorf("fault: invalid mode %d", int(mode))
	}
	edgeCap := opts.EdgeCapacity
	if edgeCap <= 0 {
		edgeCap = g.NumEdges()
	}
	constructions.Add(1)
	n := g.NumVertices()
	return &Oracle{
		g:          g,
		mode:       mode,
		opts:       opts,
		solver:     sssp.NewSolver(n),
		forbiddenV: bitset.New(n),
		forbiddenE: bitset.New(edgeCap),
		packV:      bitset.New(n),
		packE:      bitset.New(edgeCap),
		memo:       make(map[uint64]uint64),
	}, nil
}

// Mode returns the oracle's fault mode.
func (o *Oracle) Mode() Mode { return o.mode }

// Rewind is for long-lived oracles whose graph shrinks and regrows between
// query runs: it re-aims the oracle at g — typically the same graph after a
// Graph.Truncate and before a fresh run of appends — growing the vertex
// structures when g gained vertices and the edge masks up to edgeCapacity
// (the maximum edge ID the graph will hold before the next Rewind; zero
// keeps the current capacity).
//
// The memo table and the counters carry over. The memo is
// generation-stamped per query, so entries from earlier graph states can
// never serve, and no other state outlives a query. The incremental spanner
// engine uses this to carry one oracle across delta batches instead of
// rebuilding it per batch.
func (o *Oracle) Rewind(g *graph.Graph, edgeCapacity int) {
	if n := g.NumVertices(); n > o.forbiddenV.Cap() {
		o.forbiddenV = bitset.New(n)
		o.packV = bitset.New(n)
		o.solver.Ensure(n)
	}
	if edgeCapacity < g.NumEdges() {
		edgeCapacity = g.NumEdges()
	}
	if edgeCapacity > o.forbiddenE.Cap() {
		o.forbiddenE = bitset.New(edgeCapacity)
		o.packE = bitset.New(edgeCapacity)
	}
	o.g = g
}

// Calls returns the number of oracle queries served so far.
func (o *Oracle) Calls() int64 { return o.calls }

// Dijkstras returns the number of shortest-path computations performed, the
// honest cost unit for experiment E7. Witness validations (ValidateWitness
// and hints) are included.
func (o *Oracle) Dijkstras() int64 { return o.dijkstras }

// FindFaultSet searches for a fault set F with |F| <= budget such that
// dist_{g\F}(u, v) > bound. It returns the witness (vertex IDs in Vertices
// mode, edge IDs in Edges mode; possibly empty) and whether one exists. The
// returned slice is the caller's to keep or mutate.
func (o *Oracle) FindFaultSet(u, v int, bound float64, budget int) ([]int, bool, error) {
	if u < 0 || u >= o.g.NumVertices() || v < 0 || v >= o.g.NumVertices() {
		return nil, false, fmt.Errorf("fault: query pair (%d,%d) out of range", u, v)
	}
	if u == v {
		return nil, false, fmt.Errorf("fault: query endpoints coincide (%d)", u)
	}
	if budget < 0 {
		return nil, false, fmt.Errorf("fault: negative budget %d", budget)
	}
	if o.g.NumEdges() > o.forbiddenE.Cap() {
		return nil, false, fmt.Errorf("fault: graph grew past EdgeCapacity %d", o.forbiddenE.Cap())
	}
	if o.opts.Chaos != nil {
		o.opts.Chaos()
	}
	o.calls++
	if o.opts.ObserveQuery != nil && o.calls%querySampleEvery == 0 {
		defer func(start time.Time) { o.opts.ObserveQuery(time.Since(start)) }(time.Now())
	}
	o.forbiddenV.Clear()
	o.forbiddenE.Clear()
	o.chosen = o.chosen[:0]
	o.chosenHash = 0
	o.memoGen++
	if len(o.memo) > memoMaxEntries {
		o.memo = make(map[uint64]uint64)
	}
	if !o.search(u, v, bound, budget) {
		return nil, false, nil
	}
	return append([]int(nil), o.chosen...), true, nil
}

// FindFaultSetHinted is FindFaultSet with a candidate witness tried first:
// if hint (non-empty, within budget) still witnesses on the current graph —
// one bounded reach-only test — a copy of it is returned directly, skipping
// the search; otherwise the full query runs. The speculative greedy's
// re-speculation rounds pass each deferred edge's last known witness, so a
// witness that was merely blocked behind an unresolved earlier edge costs
// one Dijkstra to confirm instead of a fresh exponential search. A hinted
// answer counts as one oracle call either way.
func (o *Oracle) FindFaultSetHinted(u, v int, bound float64, budget int, hint []int) ([]int, bool, error) {
	if len(hint) == 0 || len(hint) > budget {
		return o.FindFaultSet(u, v, bound, budget)
	}
	ok, err := o.ValidateWitness(u, v, bound, hint)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return o.FindFaultSet(u, v, bound, budget)
	}
	o.calls++
	return append([]int(nil), hint...), true, nil
}

// ValidateWitness checks with a single bounded reachability test whether w
// still witnesses dist_{g\w}(u,v) > bound on the oracle's CURRENT graph.
// This is how the parallel greedy salvages speculative answers computed
// against an earlier, smaller spanner: a witness that survives one Dijkstra-
// priced revalidation proves the edge must still be kept, with no need to
// re-run the exponential search. Elements containing an endpoint (Vertices
// mode) report false without running; out-of-range elements are an error.
// The budget is not re-checked here — w came from a budget-respecting query.
func (o *Oracle) ValidateWitness(u, v int, bound float64, w []int) (bool, error) {
	if u < 0 || u >= o.g.NumVertices() || v < 0 || v >= o.g.NumVertices() || u == v {
		return false, fmt.Errorf("fault: invalid witness-validation pair (%d,%d)", u, v)
	}
	if o.g.NumEdges() > o.forbiddenE.Cap() {
		return false, fmt.Errorf("fault: graph grew past EdgeCapacity %d", o.forbiddenE.Cap())
	}
	o.forbiddenV.Clear()
	o.forbiddenE.Clear()
	for _, x := range w {
		if o.mode == Vertices {
			if x == u || x == v {
				return false, nil
			}
			if x < 0 || x >= o.forbiddenV.Cap() {
				return false, fmt.Errorf("fault: witness vertex %d out of range", x)
			}
			o.forbiddenV.Add(x)
		} else {
			if x < 0 || x >= o.forbiddenE.Cap() {
				return false, fmt.Errorf("fault: witness edge %d out of range", x)
			}
			o.forbiddenE.Add(x)
		}
	}
	return !o.runReach(u, v, bound, o.forbiddenV, o.forbiddenE, false), nil
}

// runReach runs one bidirectional bounded reachability test against the
// oracle's graph with the given masks and reports whether v is within bound
// of u. With needPath the solver holds a valid <=bound u-v path for
// extraction on success; without it the search skips the path splice
// (sssp.Options.ReachOnly) — witness validation only consumes the boolean.
func (o *Oracle) runReach(u, v int, bound float64, fv, fe *bitset.Set, needPath bool) bool {
	o.dijkstras++
	opts := sssp.Options{ForbiddenVertices: fv, ForbiddenEdges: fe, Bound: bound, ReachOnly: !needPath}
	if err := o.solver.RunReachBidi(o.g, u, v, opts); err != nil {
		// Unreachable: endpoints are validated and never forbidden.
		panic(err)
	}
	return o.solver.Reached(v)
}

// search reports whether the currently chosen faults can be extended by at
// most budget more elements into a witness. On success the chosen faults
// (o.chosen and the forbidden sets) hold the witness.
func (o *Oracle) search(u, v int, bound float64, budget int) bool {
	if !o.runReach(u, v, bound, o.forbiddenV, o.forbiddenE, true) {
		return true // dist > bound already; chosen faults are a witness
	}
	if budget == 0 {
		return false
	}

	// Every witness must hit this short path; branch on its elements. The
	// path must be extracted before any further solver use (the pruning
	// below reuses the solver). Extraction appends into
	// a per-depth scratch buffer, so steady-state queries allocate nothing.
	depth := len(o.chosen)
	for len(o.cand) <= depth {
		o.cand = append(o.cand, nil)
	}
	buf := o.cand[depth][:0]
	var candidates []int
	if o.mode == Vertices {
		buf = o.solver.AppendPathTo(o.g, v, buf)
		o.cand[depth] = buf
		if len(buf) <= 2 {
			return false // direct edge: no internal vertex can cut it
		}
		candidates = buf[1 : len(buf)-1]
	} else {
		buf = o.solver.AppendPathEdgesTo(o.g, v, buf)
		o.cand[depth] = buf
		candidates = buf
	}

	// The packing bound refutes the branch outright when more than budget
	// pairwise disjoint short detours survive, whichever detours the
	// packing happened to find, so it uses the bidirectional search. The
	// path just extracted is the packing's first member (the solver is
	// deterministic, so an unseeded packing would recompute exactly it),
	// saving one Dijkstra.
	if !o.opts.DisablePruning && o.packPaths(u, v, bound, budget+1, candidates, true) > budget {
		return false
	}

	for _, x := range candidates {
		o.push(x)
		skip := false
		if !o.opts.DisableMemo {
			if o.memo[o.chosenHash] == o.memoGen {
				skip = true
			} else {
				o.memo[o.chosenHash] = o.memoGen
			}
		}
		if !skip && o.search(u, v, bound, budget-1) {
			return true
		}
		o.pop(x)
	}
	return false
}

// CountDisjointShortPaths greedily packs pairwise internally-vertex-disjoint
// (Vertices mode) or edge-disjoint (Edges mode) u-v paths of weight at most
// bound, stopping at limit. A count of c certifies that no fault set of size
// < c can stretch (u,v) beyond bound — the soundness core of the
// polynomial-time conservative greedy (core.GreedyConservative). A direct
// u-v edge within the bound counts as limit in Vertices mode (it cannot be
// vertex-faulted at all).
func (o *Oracle) CountDisjointShortPaths(u, v int, bound float64, limit int) (int, error) {
	if u < 0 || u >= o.g.NumVertices() || v < 0 || v >= o.g.NumVertices() || u == v {
		return 0, fmt.Errorf("fault: invalid path-packing pair (%d,%d)", u, v)
	}
	if limit < 0 {
		return 0, fmt.Errorf("fault: negative packing limit %d", limit)
	}
	if o.g.NumEdges() > o.forbiddenE.Cap() {
		return 0, fmt.Errorf("fault: graph grew past EdgeCapacity %d", o.forbiddenE.Cap())
	}
	o.forbiddenV.Clear()
	o.forbiddenE.Clear()
	return o.packPaths(u, v, bound, limit, nil, false), nil
}

// packPaths packs disjoint short paths starting from the current forbidden
// sets, returning the packing size capped at limit. A non-nil seed counts as
// the packing's first path: its elements (internal vertices in Vertices
// mode, edge IDs in Edges mode) are blocked up front, exactly as if the
// first Dijkstra had just found that path. With bidi each path comes from
// the meet-in-the-middle search (its spliced path is simple and within
// bound, which is all a packing member needs), otherwise from RunReach.
func (o *Oracle) packPaths(u, v int, bound float64, limit int, seed []int, bidi bool) int {
	o.packV.CopyFrom(o.forbiddenV)
	o.packE.CopyFrom(o.forbiddenE)
	count := 0
	if seed != nil && limit > 0 {
		count = 1
		for _, x := range seed {
			if o.mode == Vertices {
				o.packV.Add(x)
			} else {
				o.packE.Add(x)
			}
		}
	}
	opts := sssp.Options{ForbiddenVertices: o.packV, ForbiddenEdges: o.packE, Bound: bound}
	for count < limit {
		o.dijkstras++
		var err error
		if bidi {
			err = o.solver.RunReachBidi(o.g, u, v, opts)
		} else {
			err = o.solver.RunReach(o.g, u, v, opts)
		}
		if err != nil {
			panic(err) // unreachable: endpoints validated, never forbidden
		}
		if !o.solver.Reached(v) {
			return count
		}
		count++
		o.packBuf = o.packBuf[:0]
		if o.mode == Vertices {
			o.packBuf = o.solver.AppendPathTo(o.g, v, o.packBuf)
			if len(o.packBuf) <= 2 {
				// A direct u-v edge cannot be hit by vertex faults at all:
				// it alone defeats any budget, so report the cap.
				return limit
			}
			for _, x := range o.packBuf[1 : len(o.packBuf)-1] {
				o.packV.Add(x)
			}
		} else {
			o.packBuf = o.solver.AppendPathEdgesTo(o.g, v, o.packBuf)
			for _, e := range o.packBuf {
				o.packE.Add(e)
			}
		}
	}
	return count
}

func (o *Oracle) push(x int) {
	if o.mode == Vertices {
		o.forbiddenV.Add(x)
	} else {
		o.forbiddenE.Add(x)
	}
	o.chosen = append(o.chosen, x)
	o.chosenHash ^= mix64(uint64(x) + 1)
}

func (o *Oracle) pop(x int) {
	if o.mode == Vertices {
		o.forbiddenV.Remove(x)
	} else {
		o.forbiddenE.Remove(x)
	}
	o.chosen = o.chosen[:len(o.chosen)-1]
	o.chosenHash ^= mix64(uint64(x) + 1)
}

// mix64 is the splitmix64 finalizer: the per-element hash whose XOR forms
// the order-independent fault-set key. Chosen sets have distinct elements
// (a forbidden element never reappears on a surviving path), so XOR of
// injectively mixed elements collides only with probability ~2^-64 — far
// below the error rate of the hardware running the search.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
