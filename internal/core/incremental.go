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
// The re-scan is the package's scan loop (scan.run) from p, and the
// monotonicity lemma (package doc) makes it cheap. Walking the suffix in
// order, maintain two flags comparing the new H-prefix to the old run's
// H-prefix at the same point in the merged (live + just-deleted-kept) order:
// superset (new H ⊇ old H) and subset (new H ⊆ old H). While superset
// holds, an edge the old run dropped stays dropped; while subset holds, an
// edge the old run kept stays kept. Both shortcuts skip the oracle query
// entirely; the flags flip the first time a decision or a deletion makes the
// prefixes diverge, after which the affected direction falls back to real
// queries. Passing a deleted kept edge or an old keep flipping to a drop
// clears superset; a new keep the old run did not have clears subset.
//
// A repair from p queries only edges a from-scratch build would also query,
// each against the same prefix H, so no dirty fraction makes a full rebuild
// cheaper: the engine's initial build is itself a repair from position 0.

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
	// Progress, if non-nil, fires once per edge scanned by the initial
	// build and by suffix repairs, with the same abort semantics as
	// Options.Progress. An aborted batch leaves the engine needing repair
	// (NeedsRepair); the graph mutations stay applied and the next
	// ApplyBatch or Repair call finishes the re-scan.
	Progress func(scanned, kept int) error
	// DisableStateReuse turns off carrying the kept-prefix graph and fault
	// oracle across batches: every suffix repair rebuilds both from scratch,
	// restoring the per-batch O(|E| + oracle build) behavior. This is the
	// ablation baseline; the kept set is digest-identical either way.
	DisableStateReuse bool
}

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
	// SuffixLen is how many live edges the repair re-examined.
	SuffixLen int
	// OracleQueries counts suffix decisions that ran a live fault-set
	// search; ShortcutKeeps/ShortcutDrops count decisions carried over by
	// the monotonicity flags without a query.
	OracleQueries int64
	ShortcutKeeps int
	ShortcutDrops int
	// Dijkstras counts the shortest-path computations the live oracle ran
	// during the repair: its counter's delta across the suffix scan.
	Dijkstras int64
	// OracleReused marks a suffix repair that rewound the retained prefix
	// graph and fault oracle to the divergence point instead of rebuilding
	// them; OracleBuilt marks a suffix repair that constructed them from
	// scratch (seeded engine's first repair, reuse disabled, or a compaction
	// or aborted repair invalidated the retained state). Both are false when
	// the batch left every decision intact.
	OracleReused bool
	OracleBuilt  bool
	Duration     time.Duration
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
	Inserted      int
	Deleted       int
	SuffixEdges   int64
	OracleQueries int64
	ShortcutKeeps int64
	ShortcutDrops int64
	Dijkstras     int64
	Compactions   int
	// OracleReuses counts suffix repairs that rewound the retained prefix
	// graph and oracle; OracleRebuilds counts suffix repairs that built them
	// from scratch.
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

	// sc is the retained scan carried across batches: its H holds the kept
	// edges appended in scan order (sc.kept is ascending by scan key — the
	// scan-position → arena-watermark map), and its oracle stays bound to H
	// with its memo warm. A suffix repair at divergence key k truncates H
	// back to the watermark before k and Rewinds the oracle instead of
	// rebuilding both, making a small delta cost O(dirty suffix).
	// sc is nil after a compaction or an aborted repair, and the next repair
	// then rebuilds it from the kept prefix (and retains the result).
	sc *scan

	// pending, when non-nil, marks decisions at scan keys >= *pending as
	// stale: a previous repair aborted (Progress error or oracle failure)
	// after the graph mutations were applied. The next repair re-decides
	// that suffix with full queries — the interrupted walk's flag state is
	// gone, so the shortcuts stay off for safety.
	pending *scanKey

	stats IncrementalStats
}

// NewIncremental builds an engine over a deep copy of initial (nil means an
// empty graph) and runs the initial greedy build: a repair from scan
// position 0 with no prior decisions, whose H and oracle the first batch
// then rewinds.
func NewIncremental(initial *graph.Graph, opts IncrementalOptions) (*Incremental, error) {
	inc, err := newIncrementalShell(initial, opts)
	if err != nil {
		return nil, err
	}
	if err := inc.repairSuffix(0, scanKey{}, &repair{inc: inc, res: &BatchResult{}}); err != nil {
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
	if err := opts.options().validate(); err != nil {
		return nil, err
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

// options is the engine's scan configuration. Sessions do not speculate.
func (o IncrementalOptions) options() Options {
	return Options{Stretch: o.Stretch, Faults: o.Faults, Mode: o.Mode, Oracle: o.Oracle, Progress: o.Progress}
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

// Snapshot is an immutable view of an engine's state after one batch: the
// current graph's digest, sizes and kept edges, plus what it takes to
// materialize the graph later. Later batches, compactions included, do not
// change it, and it is safe for concurrent use.
type Snapshot struct {
	// Digest is the materialized current graph's content digest.
	Digest string
	// NumVertices and LiveEdges size the current graph.
	NumVertices int
	LiveEdges   int
	// Kept lists the kept edges in scan order. Their IDs are underlying IDs
	// of the snapshot's own view, meaningful only to this Snapshot.
	Kept []graph.Edge
	g    *graph.Frozen
}

// Snapshot returns the engine's current state as an immutable Snapshot. Its
// cost is one SHA-256 over the cached canonical lines of the live edges,
// copies of the tombstone bits and the kept list, and nothing that
// materializes the graph or formats a weight. It fails while NeedsRepair.
func (inc *Incremental) Snapshot() (*Snapshot, error) {
	snap, err := inc.freeze()
	if err != nil {
		return nil, err
	}
	snap.Digest = snap.g.Digest()
	return snap, nil
}

// freeze is Snapshot without the digest.
func (inc *Incremental) freeze() (*Snapshot, error) {
	if inc.pending != nil {
		return nil, fmt.Errorf("core: incremental state needs repair after an aborted batch; call Repair")
	}
	var kept []graph.Edge
	if inc.sc != nil {
		// The retained scan's kept list is the kept set in scan order.
		kept = append(make([]graph.Edge, 0, len(inc.sc.kept)), inc.sc.kept...)
	} else {
		// No retained scan (a seeded engine before its first repair, or just
		// after a compaction): read the kept set off the scan order.
		kept = make([]graph.Edge, 0, inc.keptN)
		for _, e := range inc.order {
			if inc.kept[e.ID] {
				kept = append(kept, e)
			}
		}
	}
	return &Snapshot{
		NumVertices: inc.m.NumVertices(),
		LiveEdges:   inc.m.NumLiveEdges(),
		Kept:        kept,
		g:           inc.m.Freeze(),
	}, nil
}

// Materialize returns the snapshot's graph and its kept edges as
// materialized edge IDs in scan order — exactly Result.Input and Result.Kept
// of a from-scratch Greedy run over that graph.
func (s *Snapshot) Materialize() (*graph.Graph, []int) {
	mat, ids := s.g.Materialize()
	matID := make([]int, s.g.NumEdges())
	for i, id := range ids {
		matID[id] = i
	}
	kept := make([]int, len(s.Kept))
	for i, e := range s.Kept {
		kept[i] = matID[e.ID]
	}
	return mat, kept
}

// AppendSpanner appends the spanner in the Graph.Encode text form — the
// header, then the kept edges' cached lines in scan order — byte-identical
// to encoding the spanner a Greedy run over the snapshot's graph builds.
func (s *Snapshot) AppendSpanner(buf []byte) []byte {
	return s.g.AppendSubgraph(buf, s.Kept)
}

// Current returns the materialized current graph and the kept edge list as
// materialized edge IDs in scan order — exactly Result.Input and Result.Kept
// of a from-scratch Greedy run. It fails while NeedsRepair.
func (inc *Incremental) Current() (*graph.Graph, []int, error) {
	snap, err := inc.freeze()
	if err != nil {
		return nil, nil, err
	}
	mat, kept := snap.Materialize()
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
// and the suffix is re-decided against the prefix (with monotonicity
// shortcuts). On success the kept set is digest-identical to rebuilding
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
	r := &repair{
		inc: inc, res: res, inserted: inserted, deletedKept: deletedKept,
		superset: !resumed, subset: !resumed,
	}
	if err := inc.repairSuffix(p, *minKey, r); err != nil {
		inc.sc = nil // its H no longer matches the kept table
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
	inc.stats.Dijkstras += res.Stats.Dijkstras
	if res.Stats.OracleReused {
		inc.stats.OracleReuses++
	}
	if res.Stats.OracleBuilt {
		inc.stats.OracleRebuilds++
	}
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

// repairSuffix runs the scan loop over order[p:] against the kept prefix
// order[:p], with r recalling and settling decisions. The retained scan is
// rewound when it exists: its H's CSR arena is truncated back to the kept
// watermark at the divergence key (the just-deleted kept edges all sit at
// keys >= minKey, so the truncation sheds them too) and the oracle is
// re-aimed with Rewind, keeping its memo warm.
// Otherwise — a seeded engine's first repair, reuse disabled, or the state
// was invalidated — the scan is built from the kept prefix exactly as a cold
// engine would, then retained for the next batch.
func (inc *Incremental) repairSuffix(p int, minKey scanKey, r *repair) error {
	order := inc.order
	s := inc.sc
	if s != nil && !inc.opts.DisableStateReuse {
		cut := sort.Search(len(s.kept), func(i int) bool {
			return !keyLess(keyOf(s.kept[i]), minKey)
		})
		s.h.Truncate(cut)
		s.kept = s.kept[:cut]
		for s.h.NumVertices() < inc.m.NumVertices() {
			s.h.AddVertex()
		}
		s.live.Rewind(s.h, len(order))
		r.res.Stats.OracleReused = true
	} else {
		h := graph.New(inc.m.NumVertices())
		kept := make([]graph.Edge, 0, inc.keptN)
		for _, e := range order[:p] {
			if inc.kept[e.ID] {
				h.MustAddEdge(e.U, e.V, e.Weight)
				kept = append(kept, e)
			}
		}
		var err error
		if s, err = newScan(h, inc.opts.options(), len(order)); err != nil {
			return err
		}
		s.kept = kept
		inc.sc = s
		r.res.Stats.OracleBuilt = true
	}
	s.prior = r
	before := s.live.Dijkstras()
	err := s.run(order[p:])
	r.res.Stats.Dijkstras += s.live.Dijkstras() - before
	if err != nil {
		k := keyOf(order[p+s.pos])
		inc.pending = &k
		return err
	}
	inc.keptN = len(s.kept)
	return nil
}

// repair is a session batch's side of the scan loop: it recalls the previous
// run's decisions for the monotonicity shortcuts and settles each new
// decision into the engine's tables and the batch's kept-set delta. The
// initial build runs with both shortcut flags off.
type repair struct {
	inc         *Incremental
	res         *BatchResult
	inserted    map[int]bool
	deletedKept []graph.Edge // in scan order, consumed as the walk passes them
	// superset and subset compare the new H-prefix to the old run's.
	superset, subset bool
	// isIns and prevKept describe the edge being decided.
	isIns, prevKept bool
}

// recall returns the old decision for e when a monotonicity flag carries it
// over, and known=false when e needs the keep test.
func (r *repair) recall(e graph.Edge) (keep, known bool) {
	for len(r.deletedKept) > 0 && keyLess(keyOf(r.deletedKept[0]), keyOf(e)) {
		r.superset = false // old H had this edge here; new H never will
		r.deletedKept = r.deletedKept[1:]
	}
	// The engine's flag doubles as the old decision (each edge is visited
	// once, deleted kept edges were already cleared, and fresh IDs start
	// false), so the membership delta falls out of the walk without an
	// O(|E|) pre-batch snapshot.
	r.isIns = r.inserted[e.ID]
	r.prevKept = !r.isIns && r.inc.kept[e.ID]
	switch {
	case !r.isIns && !r.prevKept && r.superset:
		r.res.Stats.ShortcutDrops++
		return false, true
	case r.prevKept && r.subset:
		r.res.Stats.ShortcutKeeps++
		return true, true
	}
	r.res.Stats.OracleQueries++
	return false, false
}

// settle records e's decision and updates the flags.
func (r *repair) settle(e graph.Edge, keep bool) {
	r.inc.kept[e.ID] = keep
	if keep && !r.prevKept {
		r.res.KeptAdded = append(r.res.KeptAdded, e)
		r.subset = false // new H gained an edge old H never had
	} else if !keep && r.prevKept {
		r.res.KeptRemoved = append(r.res.KeptRemoved, e)
		r.superset = false // old H had it from here on, new H does not
	}
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
	// place, and drop the retained scan — its scan-key watermarks name the
	// old IDs. The next suffix repair rebuilds it from scratch.
	for i := range inc.order {
		inc.order[i].ID = remap[inc.order[i].ID]
	}
	inc.sc = nil
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
