package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// This file implements incremental maintenance of the fault-tolerant greedy
// spanner over a long-lived mutable graph: apply a batch of edge
// inserts/deletes, repair only the affected weight suffix, and end up with a
// kept set digest-identical to a from-scratch greedy rebuild of the current
// graph.
//
// Why a suffix repair is exact. The greedy scans edges by (weight, edge ID)
// and each keep/drop decision depends only on the kept prefix H built so
// far. Define the session's canonical scan order as (weight, underlying
// edge ID) over the live edges — insertion order breaks weight ties, which
// Mutable.Materialize preserves, so this IS the order a from-scratch rebuild
// of the materialized graph uses. A batch's earliest dirty position p is the
// first scan position whose view of H can differ from before: the smallest
// position among the inserted edges and the would-be positions of deleted
// KEPT edges (deleting a dropped edge changes no prefix H, so it is free).
// Every decision before p carries over verbatim; the suffix from p is
// re-scanned against the prefix's kept set.
//
// Monotonicity shortcuts make the re-scan cheap. Walking the suffix in
// order, maintain two flags comparing the new H-prefix to the old run's
// H-prefix at the same point in the merged (live + just-deleted-kept) order:
// superset (new H ⊇ old H) and subset (new H ⊆ old H). While superset
// holds, an edge the old run dropped stays dropped — the oracle found no
// breaking fault set against a subgraph of today's H, and adding edges only
// shortens fault-free distances (in EFT mode, any new fault set F' maps to
// F = F' ∩ oldH with oldH\F ⊆ newH\F', so "no fault set" is preserved
// too). Symmetrically, while subset holds, an edge the old run kept stays
// kept. Both shortcuts skip the oracle query entirely; the flags flip the
// first time a decision or a deletion makes the prefixes diverge, after
// which the affected direction falls back to real queries. Flag updates:
// passing a deleted kept edge clears superset; a kept inserted edge or an
// old-dropped edge flipping to kept clears subset; an old-kept edge
// flipping to dropped clears superset.

// IncrementalOptions configures an Incremental engine. Stretch, Faults and
// Mode have Options semantics and are fixed for the engine's lifetime (they
// are part of what the kept set means).
type IncrementalOptions struct {
	// Stretch is the spanner parameter k >= 1.
	Stretch float64
	// Faults is the fault-tolerance parameter f >= 0.
	Faults int
	// Mode selects vertex faults (VFT) or edge faults (EFT).
	Mode fault.Mode
	// Oracle tunes the fault-set search; EdgeCapacity is managed internally.
	Oracle fault.Options
	// RebuildThreshold is the dirty fraction (suffix length over live edge
	// count) above which ApplyBatch abandons the suffix repair and rebuilds
	// from scratch with Greedy — a huge suffix repairs slower than a full
	// rebuild. 0 selects the default (0.6); values >= 1 never rebuild;
	// negative values always rebuild.
	RebuildThreshold float64
	// Progress, if non-nil, fires once per re-examined edge during suffix
	// repairs and passes through to Greedy during full rebuilds, with the
	// same abort semantics as Options.Progress. An aborted batch leaves the
	// engine needing repair (NeedsRepair); the graph mutations stay applied
	// and the next ApplyBatch or Repair call finishes the re-scan.
	Progress func(scanned, kept int) error
	// DisableStateReuse turns off carrying the kept-prefix graph and fault
	// oracle across batches: every suffix repair rebuilds both from scratch,
	// restoring the per-batch O(|E| + oracle build) behavior. This is the
	// ablation baseline (mirroring fault.Options.DisableWitnessReuse); the
	// kept set is digest-identical either way.
	DisableStateReuse bool
}

// defaultRebuildThreshold is the dirty fraction above which a full rebuild
// replaces the suffix repair when IncrementalOptions.RebuildThreshold is 0.
const defaultRebuildThreshold = 0.6

// DeltaOp is the kind of one Delta.
type DeltaOp int

const (
	// DeltaInsert adds the live edge (U, V) with Weight.
	DeltaInsert DeltaOp = iota
	// DeltaDelete removes the live edge joining U and V.
	DeltaDelete
	// DeltaFaultVertex removes every live edge incident to Vertex — a
	// permanent vertex-fault event. (Transient what-if faults are the
	// oracle's department; a fault event in a delta stream means the node
	// is gone.)
	DeltaFaultVertex
)

// Delta is one graph mutation in a Batch. Unused fields are ignored.
type Delta struct {
	Op     DeltaOp
	U, V   int
	Weight float64
	Vertex int
}

// Batch is one atomic group of mutations: AddVertices new isolated vertices
// first (existing IDs never change), then the Deltas in order. The whole
// batch is validated before any mutation is applied, so a bad delta rejects
// the batch without side effects.
type Batch struct {
	AddVertices int
	Deltas      []Delta
}

// DeltaError reports the first invalid delta of a rejected batch.
type DeltaError struct {
	// Index is the offending delta's position in Batch.Deltas, or -1 when
	// Batch.AddVertices itself is invalid.
	Index int
	Err   error
}

func (e *DeltaError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("core: bad batch: %v", e.Err)
	}
	return fmt.Sprintf("core: bad delta %d: %v", e.Index, e.Err)
}

func (e *DeltaError) Unwrap() error { return e.Err }

// BatchStats instruments one ApplyBatch call.
type BatchStats struct {
	// Inserted and Deleted count applied mutations (a fault-vertex delta
	// counts one Deleted per removed incident edge).
	Inserted int
	Deleted  int
	// SuffixLen is how many live edges the repair re-examined (the whole
	// graph for a full rebuild).
	SuffixLen int
	// OracleQueries counts suffix decisions that ran a live fault-set
	// search; ShortcutKeeps/ShortcutDrops count decisions carried over by
	// the monotonicity flags without a query.
	OracleQueries int64
	ShortcutKeeps int
	ShortcutDrops int
	// FullRebuild is true when the dirty fraction crossed the threshold and
	// the batch was resolved by a from-scratch Greedy run.
	FullRebuild bool
	// OracleReused marks a suffix repair that rewound the retained prefix
	// graph and fault oracle to the divergence point instead of rebuilding
	// them; OracleBuilt marks a suffix repair that constructed them from
	// scratch (first batch, reuse disabled, or a prior fallback invalidated
	// the retained state). Both are false when the batch left every decision
	// intact or was resolved by a full rebuild.
	OracleReused bool
	OracleBuilt  bool
	// DirtyFraction is suffix length over live edge count at decision time.
	DirtyFraction float64
	Duration      time.Duration
}

// BatchResult is the output of one ApplyBatch call: the kept-set delta plus
// instrumentation. Edge values carry endpoints and weights; their IDs are
// underlying session IDs, stable only until the engine's next compaction.
type BatchResult struct {
	// KeptAdded and KeptRemoved are the spanner membership changes, in scan
	// order (removals of deleted edges first).
	KeptAdded   []graph.Edge
	KeptRemoved []graph.Edge
	// Kept and LiveEdges are the totals after the batch.
	Kept      int
	LiveEdges int
	Stats     BatchStats
}

// IncrementalStats accumulates engine instrumentation across batches.
type IncrementalStats struct {
	Batches       int
	FullRebuilds  int
	Inserted      int
	Deleted       int
	SuffixEdges   int64
	OracleQueries int64
	ShortcutKeeps int64
	ShortcutDrops int64
	Compactions   int
	// OracleReuses counts suffix repairs that rewound the retained prefix
	// graph and oracle; OracleRebuilds counts suffix repairs that built them
	// from scratch. Full Greedy rebuilds show up in FullRebuilds, not here.
	OracleReuses   int64
	OracleRebuilds int64
}

// scanKey orders edges the way the greedy scans them: weight ascending,
// underlying ID breaking ties.
type scanKey struct {
	w  float64
	id int
}

func keyLess(a, b scanKey) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.id < b.id
}

func keyOf(e graph.Edge) scanKey { return scanKey{w: e.Weight, id: e.ID} }

// Incremental maintains a fault-tolerant greedy spanner over a mutable
// graph. After every successful ApplyBatch the kept set is digest-identical
// to Greedy run from scratch on the materialized current graph. Witness
// fault sets are not maintained incrementally — sessions trade them for
// cheap deltas; run Greedy on Current's graph when witnesses are needed.
//
// Incremental is not safe for concurrent use.
type Incremental struct {
	opts  IncrementalOptions
	m     *graph.Mutable
	kept  []bool // by underlying edge ID
	keptN int

	// order is the live edge list in greedy scan order (weight, underlying
	// ID), maintained incrementally: each batch rewrites only the tail from
	// the earliest affected scan position — deletions filter out, insertions
	// merge in — so order upkeep is O(affected suffix), not O(|E|), and no
	// per-batch re-sort runs. orderBuf is the tail-copy merge scratch (never
	// aliased with order).
	order    []graph.Edge
	orderBuf []graph.Edge

	// Retained repair state carried across batches. h is the kept spanner
	// with edges appended in scan order, hKeys[i] the scan key of h's edge i
	// (ascending — the scan-position → arena-watermark map), and oracle
	// stays bound to h with its memo and witness cache warm. A suffix repair
	// at divergence key k truncates h back to the watermark before k and
	// Rewinds the oracle instead of rebuilding both, making a small delta
	// cost O(dirty suffix). All three are nil after an invalidation —
	// compaction, full rebuild, or aborted repair — and the next suffix
	// repair then rebuilds them from scratch (and retains the result).
	h      *graph.Graph
	hKeys  []scanKey
	oracle *fault.Oracle

	// pending, when non-nil, marks decisions at scan keys >= *pending as
	// stale: a previous repair aborted (Progress error or oracle failure)
	// after the graph mutations were applied. The next repair re-decides
	// that suffix with full queries — the interrupted walk's flag state is
	// gone, so the shortcuts stay off for safety.
	pending *scanKey

	stats IncrementalStats
}

// NewIncremental builds an engine over a deep copy of initial (nil means an
// empty graph) and runs the initial greedy build.
func NewIncremental(initial *graph.Graph, opts IncrementalOptions) (*Incremental, error) {
	inc, err := newIncrementalShell(initial, opts)
	if err != nil {
		return nil, err
	}
	if err := inc.rebuild(); err != nil {
		return nil, err
	}
	return inc, nil
}

// NewIncrementalSeeded is NewIncremental with the initial build skipped: kept
// lists initial's kept edge IDs from a previous greedy run over the exact
// same graph (e.g. a digest-keyed cache hit). The engine trusts the list —
// seeding with anything but the true greedy kept set breaks the
// digest-identity guarantee from the first batch on.
func NewIncrementalSeeded(initial *graph.Graph, kept []int, opts IncrementalOptions) (*Incremental, error) {
	inc, err := newIncrementalShell(initial, opts)
	if err != nil {
		return nil, err
	}
	for _, id := range kept {
		if id < 0 || id >= inc.m.NumEdges() {
			return nil, fmt.Errorf("core: seeded kept edge ID %d out of range [0,%d)", id, inc.m.NumEdges())
		}
		if inc.kept[id] {
			return nil, fmt.Errorf("core: seeded kept edge ID %d duplicated", id)
		}
		inc.kept[id] = true
	}
	inc.keptN = len(kept)
	return inc, nil
}

func newIncrementalShell(initial *graph.Graph, opts IncrementalOptions) (*Incremental, error) {
	if opts.Stretch < 1 || math.IsInf(opts.Stretch, 0) || math.IsNaN(opts.Stretch) {
		return nil, fmt.Errorf("core: stretch must be a finite number >= 1, got %v", opts.Stretch)
	}
	if opts.Faults < 0 {
		return nil, fmt.Errorf("core: faults must be >= 0, got %d", opts.Faults)
	}
	if opts.Mode != fault.Vertices && opts.Mode != fault.Edges {
		return nil, fmt.Errorf("core: invalid fault mode %d", int(opts.Mode))
	}
	if math.IsNaN(opts.RebuildThreshold) {
		return nil, fmt.Errorf("core: rebuild threshold must not be NaN")
	}
	var m *graph.Mutable
	if initial == nil {
		m = graph.NewMutable(0)
	} else {
		m = graph.NewMutableFrom(initial)
	}
	inc := &Incremental{opts: opts, m: m, kept: make([]bool, m.NumEdges())}
	// The one full sort of the engine's lifetime: LiveEdges is ID-ascending,
	// so the stable weight sort yields (weight, ID) order; every batch after
	// this maintains it by merging.
	inc.order = m.LiveEdges()
	sort.SliceStable(inc.order, func(i, j int) bool {
		return inc.order[i].Weight < inc.order[j].Weight
	})
	return inc, nil
}

// NumVertices returns the session graph's vertex count.
func (inc *Incremental) NumVertices() int { return inc.m.NumVertices() }

// NumLiveEdges returns the session graph's live edge count.
func (inc *Incremental) NumLiveEdges() int { return inc.m.NumLiveEdges() }

// KeptCount returns the current spanner size in edges.
func (inc *Incremental) KeptCount() int { return inc.keptN }

// Stats returns the engine's cumulative instrumentation.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// NeedsRepair reports whether a previous batch aborted mid-repair, leaving
// stale suffix decisions. ApplyBatch and Repair both clear it.
func (inc *Incremental) NeedsRepair() bool { return inc.pending != nil }

// Graph exposes the underlying mutable graph for read access (enumerating
// live edges, checking membership). Callers must not mutate it directly —
// all mutations go through ApplyBatch so the kept set stays maintained.
func (inc *Incremental) Graph() *graph.Mutable { return inc.m }

// Current returns the materialized current graph and the kept edge list as
// materialized edge IDs in scan order — exactly Result.Input and Result.Kept
// of a from-scratch Greedy run. It fails while NeedsRepair.
func (inc *Incremental) Current() (*graph.Graph, []int, error) {
	if inc.pending != nil {
		return nil, nil, fmt.Errorf("core: incremental state needs repair after an aborted batch; call Repair")
	}
	mat, ids := inc.m.Materialize()
	kept := make([]int, 0, inc.keptN)
	for matID, underID := range ids {
		if inc.kept[underID] {
			kept = append(kept, matID)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		ei, ej := mat.Edge(kept[i]), mat.Edge(kept[j])
		return keyLess(scanKey{ei.Weight, ei.ID}, scanKey{ej.Weight, ej.ID})
	})
	return mat, kept, nil
}

// Repair finishes the suffix re-scan of an aborted batch. A no-op on a
// consistent engine.
func (inc *Incremental) Repair() error {
	_, err := inc.ApplyBatch(Batch{})
	return err
}

// ApplyBatch validates and applies one mutation batch, then repairs the kept
// set: decisions before the batch's earliest dirty scan position carry over,
// the suffix is re-decided against the prefix (with monotonicity shortcuts),
// and a dirty fraction above RebuildThreshold falls back to a from-scratch
// Greedy rebuild. On success the kept set is digest-identical to rebuilding
// the current graph from scratch.
//
// A *DeltaError means the batch was rejected wholesale — nothing changed.
// Any other error means the mutations are applied but the repair aborted
// (Progress hook or oracle failure): the engine reports NeedsRepair and the
// next ApplyBatch or Repair completes the re-scan.
func (inc *Incremental) ApplyBatch(b Batch) (*BatchResult, error) {
	start := time.Now()
	if err := inc.validateBatch(b); err != nil {
		return nil, err
	}

	for i := 0; i < b.AddVertices; i++ {
		inc.m.AddVertex()
	}

	// Mutation pass. Validation guarantees every delta applies cleanly. The
	// deleted KEPT edges are not collected here — the order merge below
	// recovers them in scan order for free.
	res := &BatchResult{}
	inserted := make(map[int]bool)
	var deleted []graph.Edge // deletions present in the maintained order
	deleteOne := func(u, v int) error {
		e, err := inc.m.Delete(u, v)
		if err != nil {
			return err
		}
		res.Stats.Deleted++
		if inserted[e.ID] {
			delete(inserted, e.ID) // born and died within this batch
		} else {
			deleted = append(deleted, e)
		}
		return nil
	}
	for i, d := range b.Deltas {
		switch d.Op {
		case DeltaInsert:
			id, err := inc.m.Insert(d.U, d.V, d.Weight)
			if err != nil {
				return nil, fmt.Errorf("core: delta %d: %w", i, err)
			}
			inserted[id] = true
			res.Stats.Inserted++
		case DeltaDelete:
			if err := deleteOne(d.U, d.V); err != nil {
				return nil, fmt.Errorf("core: delta %d: %w", i, err)
			}
		case DeltaFaultVertex:
			for _, e := range inc.m.LiveIncident(d.Vertex) {
				if err := deleteOne(e.U, e.V); err != nil {
					return nil, fmt.Errorf("core: delta %d: %w", i, err)
				}
			}
		}
	}
	inc.stats.Inserted += res.Stats.Inserted
	inc.stats.Deleted += res.Stats.Deleted

	// Grow the decision table to cover the batch's fresh IDs, then fold the
	// mutations into the maintained scan order. The merge hands back the
	// deleted KEPT edges already in scan order — their old slots are what
	// the suffix repair re-decides around.
	for len(inc.kept) < inc.m.NumEdges() {
		inc.kept = append(inc.kept, false)
	}
	deletedKept := inc.mergeOrder(inserted, deleted)

	// Earliest dirty scan key: inserted edges, deleted kept edges, and any
	// stale suffix left by an aborted predecessor.
	var minKey *scanKey
	noteKey := func(k scanKey) {
		if minKey == nil || keyLess(k, *minKey) {
			minKey = &k
		}
	}
	for id := range inserted {
		if inc.m.Live(id) {
			noteKey(keyOf(inc.m.Edge(id)))
		}
	}
	if len(deletedKept) > 0 {
		noteKey(keyOf(deletedKept[0])) // scan order: the first is the minimum
	}
	resumed := inc.pending != nil
	if resumed {
		noteKey(*inc.pending)
	}

	// Retire the deleted kept edges from the bookkeeping. Their scan keys
	// are all >= minKey, so the retained prefix graph sheds them during the
	// rewind's truncation.
	for _, e := range deletedKept {
		inc.kept[e.ID] = false
		res.KeptRemoved = append(res.KeptRemoved, e)
	}

	inc.stats.Batches++
	if minKey == nil {
		// Deletes of dropped edges (or a pure vertex add) leave every
		// decision intact: the dropped edge's scan step was a no-op against
		// H, so the rebuild's decisions are unchanged verbatim — and the
		// retained prefix graph and oracle stay valid, untouched.
		inc.finishBatch(res, start)
		return res, nil
	}

	p := sort.Search(len(inc.order), func(i int) bool {
		return !keyLess(keyOf(inc.order[i]), *minKey)
	})
	res.Stats.SuffixLen = len(inc.order) - p
	if len(inc.order) > 0 {
		res.Stats.DirtyFraction = float64(res.Stats.SuffixLen) / float64(len(inc.order))
	}
	threshold := inc.opts.RebuildThreshold
	if threshold == 0 {
		threshold = defaultRebuildThreshold
	}

	if res.Stats.DirtyFraction > threshold {
		// Full rebuild: snapshot the pre-repair decisions for the delta
		// report. (The suffix path computes its delta during the walk and
		// skips this O(|E|) copy.)
		res.Stats.FullRebuild = true
		oldKept := append([]bool(nil), inc.kept...)
		if err := inc.rebuild(); err != nil {
			inc.pending = minKey
			inc.invalidateRetained()
			return nil, err
		}
		inc.invalidateRetained()
		for _, e := range inc.order {
			was := e.ID < len(oldKept) && oldKept[e.ID]
			if inc.kept[e.ID] && !was {
				res.KeptAdded = append(res.KeptAdded, e)
			} else if !inc.kept[e.ID] && was {
				res.KeptRemoved = append(res.KeptRemoved, e)
			}
		}
	} else if err := inc.repairSuffix(p, *minKey, inserted, deletedKept, resumed, res); err != nil {
		inc.invalidateRetained()
		return nil, err
	}
	inc.pending = nil
	inc.maybeCompact()
	inc.finishBatch(res, start)
	return res, nil
}

// finishBatch fills the result totals and folds the batch stats into the
// engine's cumulative counters.
func (inc *Incremental) finishBatch(res *BatchResult, start time.Time) {
	res.Kept = inc.keptN
	res.LiveEdges = inc.m.NumLiveEdges()
	res.Stats.Duration = time.Since(start)
	inc.stats.SuffixEdges += int64(res.Stats.SuffixLen)
	inc.stats.OracleQueries += res.Stats.OracleQueries
	inc.stats.ShortcutKeeps += int64(res.Stats.ShortcutKeeps)
	inc.stats.ShortcutDrops += int64(res.Stats.ShortcutDrops)
}

// mergeOrder folds the batch's mutations into the maintained scan order,
// rewriting only the tail from the earliest affected scan position: every
// tombstoned and inserted edge of this batch has a key at or past that
// position (one binary search on the minimum key), so the prefix is left in
// place and the tail is copied out once and merged back — deletions filter
// out, surviving insertions merge in at their scan keys. The deleted KEPT
// edges fall out of the same pass already in scan order, so no per-batch
// sort over deletedKept; only the insertions get sorted. deleted holds the
// batch's tombstoned edges as they were in the order (born-and-died edges of
// this batch excluded — they never entered it).
func (inc *Incremental) mergeOrder(inserted map[int]bool, deleted []graph.Edge) (deletedKept []graph.Edge) {
	ins := make([]graph.Edge, 0, len(inserted))
	for id := range inserted {
		if inc.m.Live(id) {
			ins = append(ins, inc.m.Edge(id))
		}
	}
	if len(ins) == 0 && len(deleted) == 0 {
		return nil
	}
	sort.Slice(ins, func(i, j int) bool { return keyLess(keyOf(ins[i]), keyOf(ins[j])) })

	var minKey *scanKey
	note := func(k scanKey) {
		if minKey == nil || keyLess(k, *minKey) {
			minKey = &k
		}
	}
	if len(ins) > 0 {
		note(keyOf(ins[0]))
	}
	for _, e := range deleted {
		note(keyOf(e))
	}
	pos := sort.Search(len(inc.order), func(i int) bool {
		return !keyLess(keyOf(inc.order[i]), *minKey)
	})

	// Copy the affected tail aside, then merge it back over itself. orderBuf
	// is a standalone scratch (it only ever holds this copy), so the merge
	// reads from stable memory while appending into order's array.
	tail := append(inc.orderBuf[:0], inc.order[pos:]...)
	inc.orderBuf = tail
	out := inc.order[:pos]
	ii := 0
	for _, e := range tail {
		for ii < len(ins) && keyLess(keyOf(ins[ii]), keyOf(e)) {
			out = append(out, ins[ii])
			ii++
		}
		if !inc.m.Live(e.ID) {
			if e.ID < len(inc.kept) && inc.kept[e.ID] {
				deletedKept = append(deletedKept, e)
			}
			continue
		}
		out = append(out, e)
	}
	out = append(out, ins[ii:]...)
	inc.order = out
	return deletedKept
}

// invalidateRetained drops the cross-batch repair state. The next suffix
// repair rebuilds the prefix graph and oracle from scratch (and retains the
// fresh pair again). Called on compaction, full rebuild, and aborted repair
// — the fallbacks where the retained arena's watermarks stop describing the
// engine's decisions.
func (inc *Incremental) invalidateRetained() {
	inc.h = nil
	inc.hKeys = nil
	inc.oracle = nil
}

// repairSuffix re-decides order[p:] against the kept prefix order[:p]. The
// prefix graph h and the fault oracle persist across batches: when the
// retained pair is valid, the repair truncates h's CSR arena back to the
// kept watermark at the divergence key (hKeys is the scan-position →
// watermark map; the just-deleted kept edges all sit at keys >= minKey, so
// the truncation sheds them too) and re-aims the oracle with Rewind, keeping
// its memo and scored witness cache warm. Otherwise — first repair, reuse
// disabled, or a fallback invalidated the state — both are built from
// scratch exactly as a cold engine would, then retained for the next batch.
// The deleted kept edges merge into the walk at their old scan slots to keep
// the superset flag honest; resumed repairs run with both shortcut flags off
// (see Incremental.pending).
func (inc *Incremental) repairSuffix(p int, minKey scanKey, inserted map[int]bool, deletedKept []graph.Edge, resumed bool, res *BatchResult) error {
	order := inc.order
	bs := &res.Stats
	if inc.h != nil && !resumed && !inc.opts.DisableStateReuse {
		cut := sort.Search(len(inc.hKeys), func(i int) bool {
			return !keyLess(inc.hKeys[i], minKey)
		})
		inc.h.Truncate(cut)
		inc.hKeys = inc.hKeys[:cut]
		for inc.h.NumVertices() < inc.m.NumVertices() {
			inc.h.AddVertex()
		}
		if err := inc.oracle.Rewind(inc.h, len(order)); err != nil {
			return err
		}
		bs.OracleReused = true
		inc.stats.OracleReuses++
	} else {
		h := graph.New(inc.m.NumVertices())
		hKeys := make([]scanKey, 0, inc.keptN)
		for _, e := range order[:p] {
			if inc.kept[e.ID] {
				h.MustAddEdge(e.U, e.V, e.Weight)
				hKeys = append(hKeys, keyOf(e))
			}
		}
		oracleOpts := inc.opts.Oracle
		oracleOpts.EdgeCapacity = len(order)
		oracle, err := fault.NewOracle(h, inc.opts.Mode, oracleOpts)
		if err != nil {
			return err
		}
		inc.h, inc.hKeys, inc.oracle = h, hKeys, oracle
		bs.OracleBuilt = true
		inc.stats.OracleRebuilds++
	}

	superset, subset := !resumed, !resumed
	di := 0
	processed := 0
	for _, e := range order[p:] {
		for di < len(deletedKept) && keyLess(keyOf(deletedKept[di]), keyOf(e)) {
			superset = false // old H had this edge here; new H never will
			di++
		}
		if inc.opts.Progress != nil {
			if err := inc.opts.Progress(processed, inc.h.NumEdges()); err != nil {
				k := keyOf(e)
				inc.pending = &k
				return err
			}
		}
		processed++
		isIns := inserted[e.ID]
		// The pre-walk flag doubles as the old decision (each edge is
		// visited once, deleted kept edges were already cleared, and fresh
		// IDs start false), so the membership delta falls out of the walk
		// without an O(|E|) pre-batch snapshot.
		prevKept := !isIns && inc.kept[e.ID]
		var keep bool
		switch {
		case !isIns && !prevKept && superset:
			keep = false
			bs.ShortcutDrops++
		case prevKept && subset:
			keep = true
			bs.ShortcutKeeps++
		default:
			_, found, err := inc.oracle.FindFaultSet(e.U, e.V, inc.opts.Stretch*e.Weight, inc.opts.Faults)
			if err != nil {
				k := keyOf(e)
				inc.pending = &k
				return fmt.Errorf("core: incremental repair at edge (%d,%d): %w", e.U, e.V, err)
			}
			bs.OracleQueries++
			keep = found
		}
		inc.kept[e.ID] = keep
		if keep {
			inc.h.MustAddEdge(e.U, e.V, e.Weight)
			inc.hKeys = append(inc.hKeys, keyOf(e))
		}
		if keep && !prevKept {
			res.KeptAdded = append(res.KeptAdded, e)
		} else if !keep && prevKept {
			res.KeptRemoved = append(res.KeptRemoved, e)
		}
		switch {
		case isIns && keep:
			subset = false // new H gained an edge old H never had
		case prevKept && !keep:
			superset = false // old H had it from here on, new H does not
		case !isIns && !prevKept && keep:
			subset = false
		}
	}
	inc.keptN = inc.h.NumEdges()
	return nil
}

// rebuild replaces every decision with a from-scratch Greedy run over the
// materialized current graph.
func (inc *Incremental) rebuild() error {
	mat, ids := inc.m.Materialize()
	res, err := Greedy(mat, Options{
		Stretch:  inc.opts.Stretch,
		Faults:   inc.opts.Faults,
		Mode:     inc.opts.Mode,
		Oracle:   inc.opts.Oracle,
		Progress: inc.opts.Progress,
	})
	if err != nil {
		return err
	}
	for i := range inc.kept {
		inc.kept[i] = false
	}
	for _, matID := range res.Kept {
		inc.kept[ids[matID]] = true
	}
	inc.keptN = len(res.Kept)
	inc.stats.FullRebuilds++
	return nil
}

// maybeCompact reclaims tombstones once they dominate the underlying edge
// list, remapping the decision table to the fresh dense IDs. Only called on
// the success path (pending is nil), so no stale scan key can dangle across
// the renumbering.
func (inc *Incremental) maybeCompact() {
	if inc.m.NumEdges() < 64 || inc.m.Waste() <= 0.5 {
		return
	}
	remap := inc.m.Compact()
	fresh := make([]bool, inc.m.NumEdges())
	for oldID, newID := range remap {
		if newID >= 0 {
			fresh[newID] = inc.kept[oldID]
		}
	}
	inc.kept = fresh
	// Compaction renumbers the underlying IDs (monotonically on survivors,
	// so relative scan order is unchanged): rewrite the maintained order in
	// place, and drop the retained repair state — its scan-key watermarks
	// name the old IDs. The next suffix repair rebuilds it from scratch.
	for i := range inc.order {
		inc.order[i].ID = remap[inc.order[i].ID]
	}
	inc.invalidateRetained()
	inc.stats.Compactions++
}

// validateBatch dry-runs b against an overlay of the live-pair state so the
// mutation pass cannot fail halfway: a rejected batch changes nothing.
func (inc *Incremental) validateBatch(b Batch) error {
	if b.AddVertices < 0 {
		return &DeltaError{Index: -1, Err: fmt.Errorf("add_vertices must be >= 0, got %d", b.AddVertices)}
	}
	n := inc.m.NumVertices() + b.AddVertices
	// overlay: +1 live, -1 dead; absent pairs defer to the base graph.
	overlay := make(map[[2]int]int8)
	norm := func(u, v int) [2]int {
		if u <= v {
			return [2]int{u, v}
		}
		return [2]int{v, u}
	}
	liveAt := func(u, v int) bool {
		if st, ok := overlay[norm(u, v)]; ok {
			return st > 0
		}
		_, ok := inc.m.LiveBetween(u, v)
		return ok
	}
	checkPair := func(u, v int) error {
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("endpoints (%d,%d) out of range with %d vertices", u, v, n)
		}
		if u == v {
			return fmt.Errorf("self-loop at vertex %d", u)
		}
		return nil
	}
	for i, d := range b.Deltas {
		switch d.Op {
		case DeltaInsert:
			if err := checkPair(d.U, d.V); err != nil {
				return &DeltaError{Index: i, Err: err}
			}
			if d.Weight <= 0 || math.IsInf(d.Weight, 0) || math.IsNaN(d.Weight) {
				return &DeltaError{Index: i, Err: fmt.Errorf("weight must be positive and finite, got %v", d.Weight)}
			}
			if liveAt(d.U, d.V) {
				return &DeltaError{Index: i, Err: fmt.Errorf("edge (%d,%d) already live", d.U, d.V)}
			}
			overlay[norm(d.U, d.V)] = 1
		case DeltaDelete:
			if err := checkPair(d.U, d.V); err != nil {
				return &DeltaError{Index: i, Err: err}
			}
			if !liveAt(d.U, d.V) {
				return &DeltaError{Index: i, Err: fmt.Errorf("no live edge (%d,%d)", d.U, d.V)}
			}
			overlay[norm(d.U, d.V)] = -1
		case DeltaFaultVertex:
			if d.Vertex < 0 || d.Vertex >= n {
				return &DeltaError{Index: i, Err: fmt.Errorf("vertex %d out of range with %d vertices", d.Vertex, n)}
			}
			if d.Vertex < inc.m.NumVertices() {
				for _, e := range inc.m.LiveIncident(d.Vertex) {
					if _, ok := overlay[norm(e.U, e.V)]; !ok {
						overlay[norm(e.U, e.V)] = -1
					}
				}
			}
			for pair, st := range overlay {
				if st > 0 && (pair[0] == d.Vertex || pair[1] == d.Vertex) {
					overlay[pair] = -1
				}
			}
		default:
			return &DeltaError{Index: i, Err: fmt.Errorf("unknown delta op %d", int(d.Op))}
		}
	}
	return nil
}
