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
// Three optional accelerations preserve exactness:
//
//   - pruning: if more than f pairwise internally-disjoint short paths
//     survive, no budget-f fault set can hit them all, so the branch fails
//     without recursing (greedy path packing gives the disjoint paths);
//   - memoization: fault sets are hashed order-independently so
//     permutations of one set are explored once per query;
//   - witness reuse: the greedy scans edges in weight order, so fault sets
//     that witnessed recent kept edges often witness the next one too; each
//     is re-validated with a single bounded Dijkstra before the exponential
//     branching is attempted.
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
// tests and benchmarks read it to prove that non-fallback delta batches
// reuse the retained oracle instead of constructing a fresh one.
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

// Options tunes the oracle. The zero value enables every acceleration.
type Options struct {
	// DisablePruning turns off the disjoint-path packing bound.
	DisablePruning bool
	// DisableMemo turns off fault-set memoization.
	DisableMemo bool
	// DisableWitnessReuse turns off revalidation of recently found witness
	// fault sets across queries.
	DisableWitnessReuse bool
	// DisableBidi makes the refuting reachability tests use the
	// unidirectional bounded Dijkstra instead of the meet-in-the-middle
	// search (sssp.RunReachBidi). Path packing always stays unidirectional:
	// its counts feed the conservative greedy's decisions, which must not
	// depend on which within-bound paths the engine happens to return.
	DisableBidi bool
	// BlindWitnessCache reverts the witness cache to its original blind
	// behavior — pure recency order, no hit scoring, no structural seeding —
	// as the ablation baseline for the structure-aware cache. With
	// WitnessCacheSize zero it also reverts to the old 4-entry capacity.
	BlindWitnessCache bool
	// WitnessCacheSize overrides the witness cache capacity. Zero selects
	// the default (8 structured, 4 blind); the cache is consulted only when
	// the exponential branching is imminent, so each extra entry costs at
	// most one bounded Dijkstra per consulted query.
	WitnessCacheSize int
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
	// them would make the distribution bimodal in a way that tracks cache
	// luck, not search cost.
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

// Witness cache tuning. The cache is consulted only after the packing bound
// has failed to refute the query, i.e. exactly when the exponential branching
// is imminent, and each trial (cached set or structural seed) costs one
// bounded reach-only Dijkstra — cheap insurance against branching.
const (
	// witnessCacheSizeBlind is the default capacity under BlindWitnessCache:
	// the original 4-entry recency LRU.
	witnessCacheSizeBlind = 4
	// witnessCacheSizeStructured is the default capacity of the scored
	// cache. Doubling the blind default is affordable because trials are
	// ordered by score, so the added tail entries are only reached when the
	// proven ones already failed.
	witnessCacheSizeStructured = 8
	// witnessDecay is the per-consult multiplicative score decay: entries
	// that stop hitting fade toward eviction while repeat hitters (cut
	// vertices, bottleneck edges) stay at the front.
	witnessDecay = 0.9
	// witnessSeedLimit bounds the structural seed singletons tried per
	// consulted query: candidate fault elements read off the current short
	// path's structure (high-degree internal vertices in Vertices mode,
	// min-endpoint-degree edges in Edges mode).
	witnessSeedLimit = 2
)

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

	// witnesses is the reuse cache. Structured mode (the default) keeps it
	// sorted by score descending — an exponentially decayed hit count, so
	// trial order and eviction track which fault sets actually keep
	// witnessing; BlindWitnessCache keeps it in pure recency order.
	witnesses []witnessEntry

	calls            int64
	dijkstras        int64
	witnessHits      int64
	witnessMisses    int64
	witnessSeedTries int64
	witnessSeedHits  int64
}

// witnessEntry is one cached witness fault set with its decayed hit score
// (unused in blind mode, where position encodes recency).
type witnessEntry struct {
	set   []int
	score float64
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
// All accumulated state (memo table, witness cache, counters) carries over:
// the memo table is generation-stamped per query so entries from earlier
// graph states can never serve, and cached witnesses are only used after
// revalidation against the current graph — a stale witness whose element IDs now mean different
// edges either fails its one-Dijkstra recheck or proves a genuine fault set
// of the current graph, which is all the caller ever relies on. The
// incremental spanner engine uses this to carry one oracle across delta
// batches instead of rebuilding it per batch.
func (o *Oracle) Rewind(g *graph.Graph, edgeCapacity int) error {
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
	return nil
}

// Calls returns the number of oracle queries served so far.
func (o *Oracle) Calls() int64 { return o.calls }

// Dijkstras returns the number of shortest-path computations performed, the
// honest cost unit for experiment E7. Witness revalidation Dijkstras are
// included.
func (o *Oracle) Dijkstras() int64 { return o.dijkstras }

// WitnessHits returns the number of queries answered by the witness cache
// machinery — a revalidated cached fault set or a structural seed — instead
// of branching.
func (o *Oracle) WitnessHits() int64 { return o.witnessHits }

// WitnessMisses returns the number of queries where the witness cache was
// consulted but branching still had to run. Queries resolved before the
// cache applies (no short path, zero budget, or refuted by the packing
// bound) count neither as hits nor as misses.
func (o *Oracle) WitnessMisses() int64 { return o.witnessMisses }

// WitnessSeedTries returns the number of structural seed singletons tested
// (each one bounded reach-only Dijkstra).
func (o *Oracle) WitnessSeedTries() int64 { return o.witnessSeedTries }

// WitnessSeedHits returns the number of queries answered by a structural
// seed — a subset of WitnessHits.
func (o *Oracle) WitnessSeedHits() int64 { return o.witnessSeedHits }

// witnessCap returns the effective witness cache capacity.
func (o *Oracle) witnessCap() int {
	if o.opts.WitnessCacheSize > 0 {
		return o.opts.WitnessCacheSize
	}
	if o.opts.BlindWitnessCache {
		return witnessCacheSizeBlind
	}
	return witnessCacheSizeStructured
}

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
	if !o.search(u, v, bound, budget, true) {
		return nil, false, nil
	}
	witness := append([]int(nil), o.chosen...)
	o.remember(witness)
	return witness, true, nil
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
	w := append([]int(nil), hint...)
	o.remember(w)
	return w, true, nil
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

// NoteWitness offers an externally discovered witness fault set to the
// reuse LRU (a no-op under DisableWitnessReuse). The parallel greedy feeds
// it the witnesses of speculatively committed edges so the live oracle's
// cache stays as warm as a sequential run's would be. The slice is copied.
func (o *Oracle) NoteWitness(w []int) { o.remember(w) }

// runReach runs one bounded reachability test against the oracle's graph
// with the given masks, dispatching to the bidirectional engine unless
// ablated, and reports whether v is within bound of u. With needPath the
// solver holds a valid <=bound u-v path for extraction on success; without
// it the bidirectional engine skips the path splice (sssp.Options.ReachOnly)
// — the witness revalidation and seed trials only consume the boolean.
func (o *Oracle) runReach(u, v int, bound float64, fv, fe *bitset.Set, needPath bool) bool {
	o.dijkstras++
	opts := sssp.Options{ForbiddenVertices: fv, ForbiddenEdges: fe, Bound: bound, ReachOnly: !needPath}
	var err error
	if o.opts.DisableBidi {
		err = o.solver.RunReach(o.g, u, v, opts)
	} else {
		err = o.solver.RunReachBidi(o.g, u, v, opts)
	}
	if err != nil {
		// Unreachable: endpoints are validated and never forbidden.
		panic(err)
	}
	return o.solver.Reached(v)
}

// search reports whether the currently chosen faults can be extended by at
// most budget more elements into a witness. On success the chosen faults
// (o.chosen and the forbidden sets) hold the witness. top is true for the
// query-level invocation, where witness reuse applies.
func (o *Oracle) search(u, v int, bound float64, budget int, top bool) bool {
	if !o.runReach(u, v, bound, o.forbiddenV, o.forbiddenE, true) {
		return true // dist > bound already; chosen faults are a witness
	}
	if budget == 0 {
		return false
	}

	// Every witness must hit this short path; branch on its elements. The
	// path must be extracted before any further solver use (pruning and
	// witness revalidation below reuse the solver). Extraction appends into
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
	// pairwise disjoint short detours survive. The path just extracted is
	// the packing's first member (the solver is deterministic, so an
	// unseeded packing would recompute exactly it), saving one Dijkstra.
	if !o.opts.DisablePruning && o.packPaths(u, v, bound, budget+1, candidates) > budget {
		return false
	}

	// Witness reuse: branching is now unavoidable, so one bounded Dijkstra
	// per plausible cached witness is cheap insurance. A cached set that
	// misses the current short path cannot be a witness (every witness hits
	// every short path), which filters most stale entries for free.
	if top && !o.opts.DisableWitnessReuse {
		if o.tryCachedWitnesses(u, v, bound, budget, candidates) {
			o.witnessHits++
			return true
		}
		o.witnessMisses++
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
		if !skip && o.search(u, v, bound, budget-1, false) {
			return true
		}
		o.pop(x)
	}
	return false
}

// tryCachedWitnesses revalidates cached witness fault sets against the
// current query — by decayed hit score in structured mode, by recency under
// BlindWitnessCache — and then, in structured mode, falls back to structural
// seed singletons read off the current short path. On success the winning
// set is loaded into o.chosen/forbidden state (the same contract as a
// successful search) and credited in the cache's hit history.
func (o *Oracle) tryCachedWitnesses(u, v int, bound float64, budget int, pathElems []int) bool {
	structured := !o.opts.BlindWitnessCache
	if structured {
		// Uniform decay preserves order, so no re-sort is needed; entries
		// that stop hitting drift toward the eviction tail.
		for i := range o.witnesses {
			o.witnesses[i].score *= witnessDecay
		}
	}
	for i := range o.witnesses {
		w := o.witnesses[i].set
		if len(w) == 0 || len(w) > budget {
			continue
		}
		if o.mode == Vertices && (contains(w, u) || contains(w, v)) {
			continue
		}
		if !intersects(w, pathElems) {
			continue
		}
		if o.loadIfWitness(u, v, bound, w) {
			o.creditEntry(i)
			return true
		}
	}
	if structured && budget > 0 && o.trySeeds(u, v, bound, pathElems) {
		return true
	}
	return false
}

// loadIfWitness forbids w and re-checks it with one bounded reach-only test.
// On success (w still a witness) the forbidden sets stay loaded and o.chosen
// holds a copy of w; on failure every element is unloaded again.
func (o *Oracle) loadIfWitness(u, v int, bound float64, w []int) bool {
	for _, x := range w {
		if o.mode == Vertices {
			o.forbiddenV.Add(x)
		} else {
			o.forbiddenE.Add(x)
		}
	}
	if !o.runReach(u, v, bound, o.forbiddenV, o.forbiddenE, false) {
		o.chosen = append(o.chosen[:0], w...)
		return true
	}
	for _, x := range w {
		if o.mode == Vertices {
			o.forbiddenV.Remove(x)
		} else {
			o.forbiddenE.Remove(x)
		}
	}
	return false
}

// creditEntry records a hit on cache entry i: blind mode moves it to the
// recency front, structured mode bumps its score and restores the ordering.
func (o *Oracle) creditEntry(i int) {
	if o.opts.BlindWitnessCache {
		if i != 0 {
			e := o.witnesses[i]
			copy(o.witnesses[1:i+1], o.witnesses[:i])
			o.witnesses[0] = e
		}
		return
	}
	o.witnesses[i].score++
	for i > 0 && o.witnesses[i].score > o.witnesses[i-1].score {
		o.witnesses[i], o.witnesses[i-1] = o.witnesses[i-1], o.witnesses[i]
		i--
	}
}

// seedCand is one structural seed candidate with its ranking key (higher
// tries first; path position breaks ties deterministically).
type seedCand struct{ x, key int }

// trySeeds tests up to witnessSeedLimit singleton fault sets derived from
// the current short path's structure: in Vertices mode the internal path
// vertices of highest degree (the hubs every detour tends to route through
// — the articulation points of the path neighborhood in the extreme case),
// in Edges mode the path edges whose endpoints have the lowest minimum
// degree (bridge-like edges with the fewest alternative routes). Each trial
// is one bounded reach-only Dijkstra; a hit is loaded exactly like a cached
// witness and then remembered by the caller, so proven seeds graduate into
// the scored cache.
func (o *Oracle) trySeeds(u, v int, bound float64, pathElems []int) bool {
	if len(pathElems) == 0 {
		return false
	}
	var cands [witnessSeedLimit]seedCand
	n := 0
	for _, x := range pathElems {
		var key int
		if o.mode == Vertices {
			key = o.g.Degree(x)
		} else {
			e := o.g.Edge(x)
			du, dv := o.g.Degree(e.U), o.g.Degree(e.V)
			if dv < du {
				du = dv
			}
			key = -du
		}
		pos := n
		for pos > 0 && key > cands[pos-1].key {
			pos--
		}
		if pos >= witnessSeedLimit {
			continue
		}
		if n < witnessSeedLimit {
			n++
		}
		for j := n - 1; j > pos; j-- {
			cands[j] = cands[j-1]
		}
		cands[pos] = seedCand{x: x, key: key}
	}
trial:
	for _, c := range cands[:n] {
		// A cached singleton {x} on the path was already revalidated above;
		// retrying it as a seed would waste the Dijkstra.
		for i := range o.witnesses {
			if w := o.witnesses[i].set; len(w) == 1 && w[0] == c.x {
				continue trial
			}
		}
		o.witnessSeedTries++
		if o.loadIfWitness(u, v, bound, []int{c.x}) {
			o.witnessSeedHits++
			return true
		}
	}
	return false
}

// remember inserts a found witness into the reuse cache, deduplicating
// against existing entries: blind mode front-inserts and evicts the recency
// tail, structured mode inserts by score (fresh entries start at 1, ahead of
// decayed non-hitters but behind proven repeat hitters) and evicts the
// lowest-scoring entry.
func (o *Oracle) remember(w []int) {
	if o.opts.DisableWitnessReuse || len(w) == 0 {
		return
	}
	for i := range o.witnesses {
		if equalSets(o.witnesses[i].set, w) {
			o.creditEntry(i)
			return
		}
	}
	entry := witnessEntry{set: append([]int(nil), w...), score: 1}
	max := o.witnessCap()
	if o.opts.BlindWitnessCache {
		if len(o.witnesses) < max {
			o.witnesses = append(o.witnesses, witnessEntry{})
		}
		copy(o.witnesses[1:], o.witnesses)
		o.witnesses[0] = entry
		return
	}
	if len(o.witnesses) >= max {
		o.witnesses = o.witnesses[:max-1]
	}
	pos := len(o.witnesses)
	for pos > 0 && entry.score >= o.witnesses[pos-1].score {
		pos--
	}
	o.witnesses = append(o.witnesses, witnessEntry{})
	copy(o.witnesses[pos+1:], o.witnesses[pos:])
	o.witnesses[pos] = entry
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
	return o.packPaths(u, v, bound, limit, nil), nil
}

// packPaths packs disjoint short paths starting from the current forbidden
// sets, returning the packing size capped at limit. A non-nil seed counts as
// the packing's first path: its elements (internal vertices in Vertices
// mode, edge IDs in Edges mode) are blocked up front, exactly as if the
// first Dijkstra had just found that path.
func (o *Oracle) packPaths(u, v int, bound float64, limit int, seed []int) int {
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
	for count < limit {
		o.dijkstras++
		err := o.solver.RunReach(o.g, u, v, sssp.Options{
			ForbiddenVertices: o.packV,
			ForbiddenEdges:    o.packE,
			Bound:             bound,
		})
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

func contains(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

func intersects(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// equalSets reports whether two small fault sets hold the same elements
// (order-insensitive; elements within one set are distinct).
func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !contains(b, x) {
			return false
		}
	}
	return true
}
