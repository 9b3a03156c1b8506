package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// checkIncrementalDifferential is the correctness lock from the issue: the
// engine's current kept set must be digest-identical to a from-scratch
// greedy rebuild of the materialized current graph.
func checkIncrementalDifferential(t *testing.T, eng *Incremental, label string) {
	t.Helper()
	mat, kept, err := eng.Current()
	if err != nil {
		t.Fatalf("%s: Current: %v", label, err)
	}
	ref, err := Greedy(mat, Options{
		Stretch: eng.opts.Stretch,
		Faults:  eng.opts.Faults,
		Mode:    eng.opts.Mode,
	})
	if err != nil {
		t.Fatalf("%s: reference Greedy: %v", label, err)
	}
	if len(kept) != len(ref.Kept) {
		t.Fatalf("%s: incremental kept %d edges, rebuild kept %d", label, len(kept), len(ref.Kept))
	}
	for i := range kept {
		if kept[i] != ref.Kept[i] {
			t.Fatalf("%s: kept sets diverge at %d: incremental %d != rebuild %d",
				label, i, kept[i], ref.Kept[i])
		}
	}
	sp := graph.New(mat.NumVertices())
	for _, id := range kept {
		e := mat.Edge(id)
		sp.MustAddEdge(e.U, e.V, e.Weight)
	}
	if id, rd := sp.Digest(), ref.Spanner.Digest(); id != rd {
		t.Fatalf("%s: spanner digest %s != rebuild digest %s", label, id, rd)
	}
	if eng.KeptCount() != len(ref.Kept) {
		t.Fatalf("%s: KeptCount = %d, want %d", label, eng.KeptCount(), len(ref.Kept))
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", label, err)
	}
	checkSnapshot(t, snap, mat, ref, label)
}

// checkSnapshot requires snap to describe input and its greedy result ref
// exactly: the same digest and sizes, the same kept edges in the same
// order, and spanner text byte-identical to ref.Spanner's encoding.
func checkSnapshot(t *testing.T, snap *Snapshot, input *graph.Graph, ref *Result, label string) {
	t.Helper()
	if snap.Digest != input.Digest() || snap.NumVertices != input.NumVertices() || snap.LiveEdges != input.NumEdges() {
		t.Fatalf("%s: snapshot %s (%dv/%de), current graph %s (%dv/%de)", label,
			snap.Digest, snap.NumVertices, snap.LiveEdges, input.Digest(), input.NumVertices(), input.NumEdges())
	}
	var enc bytes.Buffer
	if err := ref.Spanner.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if got := snap.AppendSpanner(nil); !bytes.Equal(got, enc.Bytes()) {
		t.Fatalf("%s: snapshot spanner text\n%s\nrebuild encodes\n%s", label, got, enc.Bytes())
	}
	mat, kept := snap.Materialize()
	if mat.Digest() != snap.Digest || len(kept) != len(ref.Kept) {
		t.Fatalf("%s: snapshot materializes to %s with %d kept, want %s with %d",
			label, mat.Digest(), len(kept), snap.Digest, len(ref.Kept))
	}
	for i := range kept {
		if kept[i] != ref.Kept[i] {
			t.Fatalf("%s: snapshot kept[%d] = %d, rebuild %d", label, i, kept[i], ref.Kept[i])
		}
		if e := mat.Edge(kept[i]); e.U != snap.Kept[i].U || e.V != snap.Kept[i].V || e.Weight != snap.Kept[i].Weight {
			t.Fatalf("%s: snapshot kept edge %d is %+v, materialized %+v", label, i, snap.Kept[i], e)
		}
	}
}

// checkAblationAgree locks the state-reuse axis: the reuse engine and its
// DisableStateReuse twin, fed identical batches, must agree on the
// materialized graph, the kept edge list, and the spanner digest.
func checkAblationAgree(t *testing.T, reuse, scratch *Incremental, label string) {
	t.Helper()
	matA, keptA, err := reuse.Current()
	if err != nil {
		t.Fatalf("%s: reuse Current: %v", label, err)
	}
	matB, keptB, err := scratch.Current()
	if err != nil {
		t.Fatalf("%s: scratch Current: %v", label, err)
	}
	if matA.Digest() != matB.Digest() {
		t.Fatalf("%s: engines diverged on the graph itself: %s != %s",
			label, matA.Digest(), matB.Digest())
	}
	if len(keptA) != len(keptB) {
		t.Fatalf("%s: reuse kept %d edges, scratch kept %d", label, len(keptA), len(keptB))
	}
	for i := range keptA {
		if keptA[i] != keptB[i] {
			t.Fatalf("%s: kept sets diverge at %d: reuse %d != scratch %d",
				label, i, keptA[i], keptB[i])
		}
	}
	spA, spB := graph.New(matA.NumVertices()), graph.New(matB.NumVertices())
	for i := range keptA {
		ea, eb := matA.Edge(keptA[i]), matB.Edge(keptB[i])
		spA.MustAddEdge(ea.U, ea.V, ea.Weight)
		spB.MustAddEdge(eb.U, eb.V, eb.Weight)
	}
	if spA.Digest() != spB.Digest() {
		t.Fatalf("%s: spanner digest %s (reuse) != %s (scratch)", label, spA.Digest(), spB.Digest())
	}
}

func pairKey(u, v int) [2]int {
	if u <= v {
		return [2]int{u, v}
	}
	return [2]int{v, u}
}

// randomBatch generates a valid delta batch against the engine's current
// live-pair state, mixing inserts (with occasional weight ties), deletes,
// and the odd vertex-fault event. Live pairs are tracked in a mirror so
// intra-batch sequencing stays valid; keys are sorted before sampling so the
// same rng seed always yields the same batch.
func randomBatch(rng *rand.Rand, eng *Incremental, maxOps int) Batch {
	n := eng.NumVertices()
	live := map[[2]int]bool{}
	for _, e := range eng.Graph().LiveEdges() {
		live[pairKey(e.U, e.V)] = true
	}
	sortedLive := func() [][2]int {
		keys := make([][2]int, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		return keys
	}
	var b Batch
	if n < 4 || rng.Intn(8) == 0 {
		b.AddVertices = 1 + rng.Intn(2)
	}
	n += b.AddVertices
	ops := 1 + rng.Intn(maxOps)
	for i := 0; i < ops; i++ {
		r := rng.Intn(10)
		switch {
		case r < 5 || len(live) == 0:
			for tries := 0; tries < 20; tries++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || live[pairKey(u, v)] {
					continue
				}
				w := 1 + 2*rng.Float64()
				if rng.Intn(3) == 0 {
					w = float64(1 + rng.Intn(3)) // force weight ties
				}
				b.Deltas = append(b.Deltas, Delta{Op: DeltaInsert, U: u, V: v, Weight: w})
				live[pairKey(u, v)] = true
				break
			}
		case r < 9:
			keys := sortedLive()
			k := keys[rng.Intn(len(keys))]
			b.Deltas = append(b.Deltas, Delta{Op: DeltaDelete, U: k[0], V: k[1]})
			delete(live, k)
		default:
			v := rng.Intn(n)
			b.Deltas = append(b.Deltas, Delta{Op: DeltaFaultVertex, Vertex: v})
			for _, k := range sortedLive() {
				if k[0] == v || k[1] == v {
					delete(live, k)
				}
			}
		}
	}
	return b
}

// TestIncrementalDifferential is the tentpole acceptance suite: >= 100
// random insert/delete/fault sequences split across both fault modes, with
// the digest-identity check after every applied batch. Every sequence runs
// through two engines — state reuse on (the default) and the
// DisableStateReuse ablation — fed identical batches, locking the two paths
// to each other and both to a from-scratch greedy.
func TestIncrementalDifferential(t *testing.T) {
	const seqPerMode = 52 // 104 sequences total
	for _, mode := range []fault.Mode{fault.Vertices, fault.Edges} {
		mode := mode
		t.Run(map[fault.Mode]string{fault.Vertices: "vft", fault.Edges: "eft"}[mode], func(t *testing.T) {
			for seq := 0; seq < seqPerMode; seq++ {
				rng := rand.New(rand.NewSource(int64(1000*int(mode) + seq)))
				n := 6 + rng.Intn(5)
				g := randomInstance(rng, n, n, weightKind(seq%4))
				opts := IncrementalOptions{
					Stretch: []float64{1.5, 2, 3}[seq%3],
					Faults:  seq % 3,
					Mode:    mode,
				}
				eng, err := NewIncremental(g, opts)
				if err != nil {
					t.Fatalf("seq %d: NewIncremental: %v", seq, err)
				}
				ablOpts := opts
				ablOpts.DisableStateReuse = true
				abl, err := NewIncremental(g, ablOpts)
				if err != nil {
					t.Fatalf("seq %d: NewIncremental (ablation): %v", seq, err)
				}
				checkIncrementalDifferential(t, eng, fmt.Sprintf("seq %d initial", seq))
				for batch := 0; batch < 4; batch++ {
					b := randomBatch(rng, eng, 6)
					if _, err := eng.ApplyBatch(b); err != nil {
						t.Fatalf("seq %d batch %d: ApplyBatch: %v", seq, batch, err)
					}
					if _, err := abl.ApplyBatch(b); err != nil {
						t.Fatalf("seq %d batch %d: ApplyBatch (ablation): %v", seq, batch, err)
					}
					checkIncrementalDifferential(t, eng, fmt.Sprintf("seq %d batch %d", seq, batch))
					checkAblationAgree(t, eng, abl, fmt.Sprintf("seq %d batch %d", seq, batch))
				}
				if abl.Stats().OracleReuses != 0 {
					t.Fatalf("seq %d: ablation engine reused state %d times", seq, abl.Stats().OracleReuses)
				}
			}
		})
	}
}

// TestIncrementalEmptyStart grows a session from nothing: vertices and edges
// all arrive as deltas.
func TestIncrementalEmptyStart(t *testing.T) {
	eng, err := NewIncremental(nil, IncrementalOptions{Stretch: 3, Faults: 1, Mode: fault.Vertices})
	if err != nil {
		t.Fatalf("NewIncremental(nil): %v", err)
	}
	if eng.NumVertices() != 0 || eng.KeptCount() != 0 {
		t.Fatalf("empty engine: %d vertices, %d kept", eng.NumVertices(), eng.KeptCount())
	}
	res, err := eng.ApplyBatch(Batch{
		AddVertices: 4,
		Deltas: []Delta{
			{Op: DeltaInsert, U: 0, V: 1, Weight: 1},
			{Op: DeltaInsert, U: 1, V: 2, Weight: 1},
			{Op: DeltaInsert, U: 2, V: 3, Weight: 1},
			{Op: DeltaInsert, U: 3, V: 0, Weight: 1},
		},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if res.LiveEdges != 4 {
		t.Fatalf("LiveEdges = %d, want 4", res.LiveEdges)
	}
	checkIncrementalDifferential(t, eng, "empty start")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		if _, err := eng.ApplyBatch(randomBatch(rng, eng, 5)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		checkIncrementalDifferential(t, eng, fmt.Sprintf("grown batch %d", i))
	}
}

// TestIncrementalDeleteDroppedIsFree verifies the analysis shortcut: deleting
// an edge the greedy dropped re-examines nothing and changes nothing.
func TestIncrementalDeleteDroppedIsFree(t *testing.T) {
	// Triangle with one heavy edge: at stretch 3 / f=0 the heavy edge is
	// dropped (the two light edges give a 2-hop path within stretch).
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 2.5)
	eng, err := NewIncremental(g, IncrementalOptions{Stretch: 3, Faults: 0, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	if eng.KeptCount() != 2 {
		t.Fatalf("triangle kept %d edges, want 2", eng.KeptCount())
	}
	res, err := eng.ApplyBatch(Batch{Deltas: []Delta{{Op: DeltaDelete, U: 0, V: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SuffixLen != 0 || res.Stats.OracleQueries != 0 || res.Stats.Dijkstras != 0 {
		t.Fatalf("dropped-edge delete re-examined %d edges with %d queries and %d Dijkstras, want 0/0/0",
			res.Stats.SuffixLen, res.Stats.OracleQueries, res.Stats.Dijkstras)
	}
	if len(res.KeptAdded) != 0 || len(res.KeptRemoved) != 0 {
		t.Fatalf("dropped-edge delete changed membership: +%d -%d",
			len(res.KeptAdded), len(res.KeptRemoved))
	}
	checkIncrementalDifferential(t, eng, "after dropped delete")
}

// TestIncrementalSuffixScope verifies the repair touches only the weight
// suffix, that shortcut decisions plus oracle queries account for every
// re-examined edge, and that each query's Dijkstras are counted.
func TestIncrementalSuffixScope(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomInstance(rng, 10, 12, weightsMixed)
	eng, err := NewIncremental(g, IncrementalOptions{Stretch: 2, Faults: 1, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}

	// Insert an edge heavier than everything live: the suffix is exactly
	// that one edge and needs exactly one oracle query.
	maxW := 0.0
	for _, e := range eng.Graph().LiveEdges() {
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	u, v := -1, -1
	n := eng.NumVertices()
	for a := 0; a < n && u < 0; a++ {
		for b := a + 1; b < n; b++ {
			if _, ok := eng.Graph().LiveBetween(a, b); !ok {
				u, v = a, b
				break
			}
		}
	}
	if u < 0 {
		t.Skip("instance is complete; no free pair")
	}
	res, err := eng.ApplyBatch(Batch{Deltas: []Delta{{Op: DeltaInsert, U: u, V: v, Weight: maxW + 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SuffixLen != 1 || res.Stats.OracleQueries != 1 {
		t.Fatalf("heaviest insert: suffix %d, queries %d, want 1/1",
			res.Stats.SuffixLen, res.Stats.OracleQueries)
	}
	// Every query runs at least its first bounded search.
	if res.Stats.Dijkstras < res.Stats.OracleQueries {
		t.Fatalf("heaviest insert: %d Dijkstras for %d queries", res.Stats.Dijkstras, res.Stats.OracleQueries)
	}
	dijkstras := res.Stats.Dijkstras
	checkIncrementalDifferential(t, eng, "heaviest insert")

	// A mid-weight mutation: every re-examined edge is decided exactly once,
	// by shortcut or by query.
	res, err = eng.ApplyBatch(randomBatch(rng, eng, 4))
	if err != nil {
		t.Fatal(err)
	}
	decided := int(res.Stats.OracleQueries) + res.Stats.ShortcutKeeps + res.Stats.ShortcutDrops
	if decided != res.Stats.SuffixLen {
		t.Fatalf("decisions %d != suffix length %d", decided, res.Stats.SuffixLen)
	}
	if res.Stats.Dijkstras < res.Stats.OracleQueries {
		t.Fatalf("mixed batch: %d Dijkstras for %d queries", res.Stats.Dijkstras, res.Stats.OracleQueries)
	}
	dijkstras += res.Stats.Dijkstras
	if got := eng.Stats().Dijkstras; got != dijkstras {
		t.Fatalf("engine counts %d Dijkstras, its batches %d", got, dijkstras)
	}
	checkIncrementalDifferential(t, eng, "mixed batch")
}

// TestIncrementalWholeOrderRepair dirties every scan position in one batch:
// it deletes the lightest kept edge and inserts a new lightest edge. The
// repair must re-scan the whole order on the rewound kept state without
// constructing an oracle, and stay digest-identical to a clean-room Greedy
// and to the DisableStateReuse twin.
func TestIncrementalWholeOrderRepair(t *testing.T) {
	for _, mode := range []fault.Mode{fault.Vertices, fault.Edges} {
		rng := rand.New(rand.NewSource(9))
		g := randomInstance(rng, 8, 8, weightsMixed)
		opts := IncrementalOptions{Stretch: 3, Faults: 1, Mode: mode}
		eng, err := NewIncremental(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		twinOpts := opts
		twinOpts.DisableStateReuse = true
		twin, err := NewIncremental(g, twinOpts)
		if err != nil {
			t.Fatal(err)
		}

		mat, kept, err := eng.Current()
		if err != nil {
			t.Fatal(err)
		}
		lightest := mat.Edge(kept[0])
		u, v := -1, -1
		for a := 0; a < mat.NumVertices() && u < 0; a++ {
			for b := a + 1; b < mat.NumVertices(); b++ {
				if _, ok := eng.Graph().LiveBetween(a, b); !ok {
					u, v = a, b
					break
				}
			}
		}
		if u < 0 {
			t.Fatal("instance is complete; no free pair")
		}
		b := Batch{Deltas: []Delta{
			{Op: DeltaDelete, U: lightest.U, V: lightest.V},
			{Op: DeltaInsert, U: u, V: v, Weight: lightest.Weight / 2},
		}}

		c0 := fault.Constructions()
		res, err := eng.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if d := fault.Constructions() - c0; d != 0 {
			t.Fatalf("%v: whole-order repair constructed %d oracles, want 0", mode, d)
		}
		if res.Stats.SuffixLen != res.LiveEdges {
			t.Fatalf("%v: SuffixLen = %d, want every live edge (%d)", mode, res.Stats.SuffixLen, res.LiveEdges)
		}
		if !res.Stats.OracleReused || res.Stats.OracleBuilt {
			t.Fatalf("%v: OracleReused=%v OracleBuilt=%v, want true/false",
				mode, res.Stats.OracleReused, res.Stats.OracleBuilt)
		}
		if _, err := twin.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, fmt.Sprintf("%v whole-order repair", mode))
		checkAblationAgree(t, eng, twin, fmt.Sprintf("%v whole-order repair", mode))
	}
}

// TestIncrementalSeeded seeds the engine from a prior Greedy run (the cache
// hit path) and checks batches behave identically to a cold engine.
func TestIncrementalSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomInstance(rng, 9, 10, weightsQuantized)
	opts := IncrementalOptions{Stretch: 2, Faults: 1, Mode: fault.Vertices}
	ref, err := Greedy(g, Options{Stretch: opts.Stretch, Faults: opts.Faults, Mode: opts.Mode})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewIncrementalSeeded(g, ref.Kept, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.KeptCount() != len(ref.Kept) {
		t.Fatalf("seeded KeptCount = %d, want %d", eng.KeptCount(), len(ref.Kept))
	}
	checkIncrementalDifferential(t, eng, "seeded initial")
	for i := 0; i < 4; i++ {
		if _, err := eng.ApplyBatch(randomBatch(rng, eng, 5)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		checkIncrementalDifferential(t, eng, fmt.Sprintf("seeded batch %d", i))
	}

	// Bad seeds are rejected up front.
	if _, err := NewIncrementalSeeded(g, []int{g.NumEdges()}, opts); err == nil {
		t.Fatal("out-of-range seed ID accepted")
	}
	if _, err := NewIncrementalSeeded(g, []int{0, 0}, opts); err == nil {
		t.Fatal("duplicate seed ID accepted")
	}
}

// TestIncrementalBatchValidation checks batches are rejected atomically with
// a typed per-delta error and no engine mutation.
func TestIncrementalBatchValidation(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	eng, err := NewIncremental(g, IncrementalOptions{Stretch: 3, Faults: 0, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.KeptCount()

	cases := []struct {
		name  string
		batch Batch
		index int
	}{
		{"negative add_vertices", Batch{AddVertices: -1}, -1},
		{"self loop", Batch{Deltas: []Delta{{Op: DeltaInsert, U: 1, V: 1, Weight: 1}}}, 0},
		{"bad weight", Batch{Deltas: []Delta{{Op: DeltaInsert, U: 0, V: 2, Weight: -3}}}, 0},
		{"duplicate insert", Batch{Deltas: []Delta{{Op: DeltaInsert, U: 0, V: 1, Weight: 2}}}, 0},
		{"intra-batch duplicate", Batch{Deltas: []Delta{
			{Op: DeltaInsert, U: 0, V: 2, Weight: 1},
			{Op: DeltaInsert, U: 2, V: 0, Weight: 1},
		}}, 1},
		{"delete missing", Batch{Deltas: []Delta{{Op: DeltaDelete, U: 0, V: 2}}}, 0},
		{"delete after fault", Batch{Deltas: []Delta{
			{Op: DeltaFaultVertex, Vertex: 1},
			{Op: DeltaDelete, U: 0, V: 1},
		}}, 1},
		{"vertex out of range", Batch{Deltas: []Delta{{Op: DeltaFaultVertex, Vertex: 9}}}, 0},
		{"endpoint out of range", Batch{Deltas: []Delta{{Op: DeltaInsert, U: 0, V: 5, Weight: 1}}}, 0},
		{"unknown op", Batch{Deltas: []Delta{{Op: DeltaOp(99)}}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eng.ApplyBatch(tc.batch)
			var de *DeltaError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v, want *DeltaError", err)
			}
			if de.Index != tc.index {
				t.Fatalf("DeltaError.Index = %d, want %d", de.Index, tc.index)
			}
		})
	}
	if eng.KeptCount() != before || eng.NumLiveEdges() != 2 || eng.NeedsRepair() {
		t.Fatalf("rejected batches mutated the engine: kept %d live %d repair %v",
			eng.KeptCount(), eng.NumLiveEdges(), eng.NeedsRepair())
	}

	// A delete may cancel a same-batch insert; re-deleting the original edge
	// in the same batch is then valid.
	res, err := eng.ApplyBatch(Batch{Deltas: []Delta{
		{Op: DeltaInsert, U: 0, V: 2, Weight: 1},
		{Op: DeltaDelete, U: 0, V: 2},
	}})
	if err != nil {
		t.Fatalf("insert+delete batch: %v", err)
	}
	if res.LiveEdges != 2 {
		t.Fatalf("insert+delete batch: LiveEdges = %d, want 2", res.LiveEdges)
	}
	checkIncrementalDifferential(t, eng, "insert+delete")
}

// TestIncrementalAbortAndRepair aborts a repair mid-suffix through the
// Progress hook, then checks the engine refuses reads until Repair finishes
// the re-scan — and that the repaired state is digest-identical again.
func TestIncrementalAbortAndRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomInstance(rng, 9, 10, weightsMixed)
	boom := errors.New("boom")
	calls, armed := 0, false
	opts := IncrementalOptions{
		Stretch: 2, Faults: 1, Mode: fault.Vertices,
		Progress: func(scanned, kept int) error {
			if !armed {
				return nil // initial build runs the hook too
			}
			calls++
			if calls > 2 {
				return boom
			}
			return nil
		},
	}
	eng, err := NewIncremental(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	armed = true // only abort the repair walk

	// Delete the lightest kept edge: a long dirty suffix, so the hook
	// definitely fires more than twice.
	mat, kept, err := eng.Current()
	if err != nil {
		t.Fatal(err)
	}
	ke := mat.Edge(kept[0])
	_, err = eng.ApplyBatch(Batch{Deltas: []Delta{{Op: DeltaDelete, U: ke.U, V: ke.V}}})
	if !errors.Is(err, boom) {
		t.Fatalf("ApplyBatch err = %v, want boom", err)
	}
	if !eng.NeedsRepair() {
		t.Fatal("aborted batch did not flag NeedsRepair")
	}
	if _, _, err := eng.Current(); err == nil {
		t.Fatal("Current succeeded while NeedsRepair")
	}

	// The mutation stuck even though the repair aborted.
	if _, ok := eng.Graph().LiveBetween(ke.U, ke.V); ok {
		t.Fatal("aborted batch rolled back the graph mutation")
	}

	eng.opts.Progress = nil
	if err := eng.Repair(); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if eng.NeedsRepair() {
		t.Fatal("Repair left NeedsRepair set")
	}
	checkIncrementalDifferential(t, eng, "after repair")
}

// TestIncrementalNoOpBatchReuse is the state-reuse regression lock: a batch
// that changes no decision (deleting a dropped edge) must construct zero
// oracles and run zero oracle queries, and a batch that does repair a suffix
// must rewind the retained oracle instead of constructing a fresh one.
func TestIncrementalNoOpBatchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomInstance(rng, 10, 14, weightsMixed)
	eng, err := NewIncremental(g, IncrementalOptions{Stretch: 2, Faults: 1, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}

	// The initial build retains its state, so even the first repair
	// rewinds it.
	mat, kept, err := eng.Current()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == len(mat.Edges()) {
		t.Skip("everything kept; no dropped edge to exercise")
	}
	ke := mat.Edge(kept[len(kept)-1])
	c0 := fault.Constructions()
	res, err := eng.ApplyBatch(Batch{Deltas: []Delta{{Op: DeltaDelete, U: ke.U, V: ke.V}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := fault.Constructions() - c0; d != 0 {
		t.Fatalf("first repair constructed %d oracles, want 0", d)
	}
	if !res.Stats.OracleReused || res.Stats.OracleBuilt {
		t.Fatalf("first repair: OracleReused=%v OracleBuilt=%v, want true/false",
			res.Stats.OracleReused, res.Stats.OracleBuilt)
	}

	// No-op batch: delete a dropped edge. Zero constructions, zero queries,
	// zero suffix — the retained state is not even touched.
	dropped := graph.Edge{ID: -1}
	keptSet := map[int]bool{}
	_, kept, err = eng.Current()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range kept {
		keptSet[id] = true
	}
	mat, _, _ = eng.Current()
	for _, e := range mat.Edges() {
		if !keptSet[e.ID] {
			dropped = e
			break
		}
	}
	if dropped.ID < 0 {
		t.Skip("no dropped edge left")
	}
	c0 = fault.Constructions()
	res, err = eng.ApplyBatch(Batch{Deltas: []Delta{{Op: DeltaDelete, U: dropped.U, V: dropped.V}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := fault.Constructions() - c0; d != 0 {
		t.Fatalf("no-op batch constructed %d oracles, want 0", d)
	}
	if res.Stats.OracleQueries != 0 || res.Stats.SuffixLen != 0 ||
		res.Stats.OracleBuilt || res.Stats.OracleReused {
		t.Fatalf("no-op batch stats: queries=%d suffix=%d built=%v reused=%v, want all zero",
			res.Stats.OracleQueries, res.Stats.SuffixLen, res.Stats.OracleBuilt, res.Stats.OracleReused)
	}

	// A real suffix repair after the warm-up: still zero constructions — the
	// retained oracle is rewound, not rebuilt.
	n := eng.NumVertices()
	u, v := -1, -1
	for a := 0; a < n && u < 0; a++ {
		for b := a + 1; b < n; b++ {
			if _, ok := eng.Graph().LiveBetween(a, b); !ok {
				u, v = a, b
				break
			}
		}
	}
	if u < 0 {
		t.Skip("graph complete; no free pair")
	}
	c0 = fault.Constructions()
	res, err = eng.ApplyBatch(Batch{Deltas: []Delta{{Op: DeltaInsert, U: u, V: v, Weight: 1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := fault.Constructions() - c0; d != 0 {
		t.Fatalf("repair constructed %d oracles, want 0", d)
	}
	if !res.Stats.OracleReused || res.Stats.OracleBuilt {
		t.Fatalf("repair: OracleReused=%v OracleBuilt=%v, want true/false",
			res.Stats.OracleReused, res.Stats.OracleBuilt)
	}
	if eng.Stats().OracleReuses == 0 {
		t.Fatal("cumulative OracleReuses stayed 0")
	}
	checkIncrementalDifferential(t, eng, "after reuse batch")
}

// TestIncrementalRewindAcrossCompaction drives delete churn through the
// automatic compaction with state reuse on: compaction must invalidate the
// retained prefix (its watermarks name the old IDs), the next repair
// rebuilds from scratch, and the one after that rewinds again — with the
// differential lock holding throughout.
func TestIncrementalRewindAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomInstance(rng, 12, 60, weightsMixed)
	eng, err := NewIncremental(g, IncrementalOptions{Stretch: 3, Faults: 0, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	for eng.Graph().NumEdges() >= 64 && eng.Graph().Waste() <= 0.55 {
		live := eng.Graph().LiveEdges()
		if len(live) <= 12 {
			break
		}
		var deltas []Delta
		for i := 0; i < 6 && i < len(live); i++ {
			e := live[rng.Intn(len(live))]
			dup := false
			for _, d := range deltas {
				if pairKey(d.U, d.V) == pairKey(e.U, e.V) {
					dup = true
					break
				}
			}
			if !dup {
				deltas = append(deltas, Delta{Op: DeltaDelete, U: e.U, V: e.V})
			}
		}
		if _, err := eng.ApplyBatch(Batch{Deltas: deltas}); err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, "churn batch")
	}
	if eng.Stats().Compactions == 0 {
		t.Fatalf("churn never compacted: %d underlying edges, waste %v",
			eng.Graph().NumEdges(), eng.Graph().Waste())
	}

	// The batch right after a compaction must rebuild (the retained arena
	// died with the renumbering)...
	var firstAfter *BatchResult
	for firstAfter == nil {
		b := randomBatch(rng, eng, 3)
		res, err := eng.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, "post-compact batch")
		if res.Stats.SuffixLen > 0 {
			firstAfter = res
		}
	}
	if !firstAfter.Stats.OracleBuilt || firstAfter.Stats.OracleReused {
		t.Fatalf("first repair after compaction: OracleBuilt=%v OracleReused=%v, want true/false",
			firstAfter.Stats.OracleBuilt, firstAfter.Stats.OracleReused)
	}
	// ...and the repair after that rewinds the fresh retained state again.
	for {
		b := randomBatch(rng, eng, 3)
		res, err := eng.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, "post-compact reuse batch")
		if eng.Stats().Compactions > 1 {
			t.Skip("another compaction before a reuse batch; covered elsewhere")
		}
		if res.Stats.SuffixLen == 0 {
			continue
		}
		if !res.Stats.OracleReused || res.Stats.OracleBuilt {
			t.Fatalf("second repair after compaction: OracleReused=%v OracleBuilt=%v, want true/false",
				res.Stats.OracleReused, res.Stats.OracleBuilt)
		}
		break
	}
}

// TestIncrementalCompaction drives enough delete churn to trigger the
// automatic compaction and checks the decision table survives the
// renumbering.
func TestIncrementalCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomInstance(rng, 12, 60, weightsMixed)
	eng, err := NewIncremental(g, IncrementalOptions{Stretch: 3, Faults: 0, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	// Delete well past half the underlying edges, a few per batch.
	for eng.Graph().NumEdges() >= 64 && eng.Graph().Waste() <= 0.55 {
		live := eng.Graph().LiveEdges()
		if len(live) <= 12 {
			break
		}
		var deltas []Delta
		for i := 0; i < 6 && i < len(live); i++ {
			e := live[rng.Intn(len(live))]
			dup := false
			for _, d := range deltas {
				if pairKey(d.U, d.V) == pairKey(e.U, e.V) {
					dup = true
					break
				}
			}
			if !dup {
				deltas = append(deltas, Delta{Op: DeltaDelete, U: e.U, V: e.V})
			}
		}
		if _, err := eng.ApplyBatch(Batch{Deltas: deltas}); err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, "churn batch")
	}
	if eng.Stats().Compactions == 0 {
		t.Fatalf("churn never compacted: %d underlying edges, waste %v",
			eng.Graph().NumEdges(), eng.Graph().Waste())
	}
	// Keep mutating after the renumbering.
	for i := 0; i < 3; i++ {
		if _, err := eng.ApplyBatch(randomBatch(rng, eng, 5)); err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, fmt.Sprintf("post-compact batch %d", i))
	}
}

// TestIncrementalSnapshotOutlivesBatches takes a Snapshot after every batch
// of a delete-heavy stream that compacts more than once, and then checks
// every snapshot against the clean-room greedy of the graph it was taken
// over: later batches, truncated kept lists and rebuilt line arenas must
// leave each one as it was.
func TestIncrementalSnapshotOutlivesBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomInstance(rng, 12, 60, weightsMixed)
	opts := IncrementalOptions{Stretch: 2, Faults: 1, Mode: fault.Vertices}
	eng, err := NewIncremental(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	type taken struct {
		snap  *Snapshot
		input *graph.Graph
	}
	var snaps []taken
	for batch := 0; batch < 40; batch++ {
		if _, err := eng.ApplyBatch(randomBatch(rng, eng, 8)); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		input, _ := eng.Graph().Materialize()
		snaps = append(snaps, taken{snap, input})
	}
	if eng.Stats().Compactions < 2 {
		t.Fatalf("stream compacted %d times, want at least 2", eng.Stats().Compactions)
	}
	for i, s := range snaps {
		ref, err := Greedy(s.input, opts.options())
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, s.snap, s.input, ref, fmt.Sprintf("snapshot %d", i))
	}
}

// FuzzIncrementalDifferential feeds fuzzer-chosen instance shapes and delta
// sequences through the engine with the digest-identity check after every
// batch, running every sequence through both the state-reuse engine and its
// DisableStateReuse ablation twin and locking the two paths to each other.
// The seed corpus pins both fault modes, weight-tie regimes, fault events,
// the empty-start path, and a long churny delete-heavy run.
func FuzzIncrementalDifferential(f *testing.F) {
	f.Add(int64(1), uint64(8), uint64(10), uint64(0), uint64(1), uint64(3))
	f.Add(int64(2), uint64(10), uint64(6), uint64(1), uint64(2), uint64(4))
	f.Add(int64(3), uint64(6), uint64(14), uint64(0), uint64(0), uint64(2))
	f.Add(int64(4), uint64(0), uint64(0), uint64(1), uint64(1), uint64(5))
	f.Add(int64(5), uint64(9), uint64(9), uint64(0), uint64(2), uint64(3))
	f.Add(int64(6), uint64(11), uint64(15), uint64(1), uint64(0), uint64(9))
	f.Fuzz(func(t *testing.T, seed int64, n, extra, modeSel, faults, batches uint64) {
		rng := rand.New(rand.NewSource(seed))
		mode := fault.Vertices
		if modeSel%2 == 1 {
			mode = fault.Edges
		}
		opts := IncrementalOptions{
			Stretch: []float64{1.5, 2, 3}[seed&7%3],
			Faults:  int(faults % 3),
			Mode:    mode,
		}
		ablOpts := opts
		ablOpts.DisableStateReuse = true
		var eng, abl *Incremental
		var err error
		if n%12 == 0 {
			eng, err = NewIncremental(nil, opts)
			if err == nil {
				abl, err = NewIncremental(nil, ablOpts)
			}
		} else {
			nv := 4 + int(n%8)
			g := randomInstance(rng, nv, int(extra%16), weightKind(extra%4))
			eng, err = NewIncremental(g, opts)
			if err == nil {
				abl, err = NewIncremental(g, ablOpts)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		checkIncrementalDifferential(t, eng, "initial")
		nb := 1 + int(batches%5)
		for i := 0; i < nb; i++ {
			b := randomBatch(rng, eng, 6)
			if _, err := eng.ApplyBatch(b); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if _, err := abl.ApplyBatch(b); err != nil {
				t.Fatalf("batch %d (ablation): %v", i, err)
			}
			checkIncrementalDifferential(t, eng, fmt.Sprintf("batch %d", i))
			checkAblationAgree(t, eng, abl, fmt.Sprintf("batch %d", i))
		}
	})
}
