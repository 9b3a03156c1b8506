package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// weightKind selects the tie structure of a random test instance; ties are
// exactly what the speculative batches feed on, so the suite sweeps from
// "no batches at all" to "one batch spanning the whole scan".
type weightKind int

const (
	weightsMixed weightKind = iota // random floats with occasional ties
	weightsAllEqual
	weightsAllDistinct
	weightsQuantized // a handful of levels -> large batches
)

func (k weightKind) String() string {
	return [...]string{"mixed", "all-equal", "all-distinct", "quantized"}[k]
}

// randomInstance builds a connected random graph with the given tie
// structure.
func randomInstance(rng *rand.Rand, n, extra int, k weightKind) *graph.Graph {
	weight := func() float64 {
		switch k {
		case weightsAllEqual:
			return 1
		case weightsQuantized:
			return float64(1 + rng.Intn(4))
		default:
			return 1 + 2*rng.Float64()
		}
	}
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(perm[i], perm[rng.Intn(i)], weight())
	}
	for tries := 0; tries < 4*extra; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, weight())
		}
	}
	if k == weightsAllDistinct {
		d, err := reweightDistinct(g, rng)
		if err != nil {
			panic(err)
		}
		return d
	}
	return g
}

// reweightDistinct clones g with strictly distinct weights.
func reweightDistinct(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	perm := rng.Perm(g.NumEdges())
	out := graph.New(g.NumVertices())
	for _, e := range g.Edges() {
		w := 1 + float64(perm[e.ID])/float64(g.NumEdges())
		if _, err := out.AddEdge(e.U, e.V, w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestGreedyParallelDifferential is the tentpole acceptance suite: across
// hundreds of random instances, both fault modes, and every tie structure,
// the speculative builder at every P in {2,4,8} must produce a kept-edge
// set — and a spanner digest — byte-identical to the sequential builder's,
// with conserved work counters.
func TestGreedyParallelDifferential(t *testing.T) {
	instances := 75 // x4 weight kinds = 300 instances
	if testing.Short() {
		instances = 12
	}
	rng := rand.New(rand.NewSource(33033))
	kinds := []weightKind{weightsMixed, weightsAllEqual, weightsAllDistinct, weightsQuantized}
	for inst := 0; inst < instances; inst++ {
		for _, kind := range kinds {
			n := 8 + rng.Intn(10)
			g := randomInstance(rng, n, rng.Intn(3*n), kind)
			stretch := []float64{1.5, 2, 3, 5}[rng.Intn(4)]
			faults := rng.Intn(4)
			mode := fault.Vertices
			if inst%2 == 1 {
				mode = fault.Edges
			}
			opts := Options{Stretch: stretch, Faults: faults, Mode: mode}

			seqRes, err := Greedy(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			seqDigest := seqRes.Spanner.Digest()
			for _, p := range []int{2, 4, 8} {
				popts := opts
				popts.Parallelism = p
				parRes, err := Greedy(g, popts)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("inst %d (%s mode=%v n=%d m=%d k=%v f=%d P=%d)",
					inst, kind, mode, n, g.NumEdges(), stretch, faults, p)
				if len(parRes.Kept) != len(seqRes.Kept) {
					t.Fatalf("%s: parallel kept %d edges, sequential kept %d",
						tag, len(parRes.Kept), len(seqRes.Kept))
				}
				for i := range parRes.Kept {
					if parRes.Kept[i] != seqRes.Kept[i] {
						t.Fatalf("%s: kept sets diverge at position %d: %d != %d",
							tag, i, parRes.Kept[i], seqRes.Kept[i])
					}
				}
				if d := parRes.Spanner.Digest(); d != seqDigest {
					t.Fatalf("%s: spanner digest %s != sequential %s", tag, d, seqDigest)
				}
				// Every recorded witness must be a genuine fault set for
				// its edge (witness CONTENT may legitimately differ from
				// the sequential run's).
				if err := checkWitnesses(parRes); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				// A distinct-weight scan has no batch of length >= 2, so
				// it must never speculate; every other kind on these
				// sizes has ties, so at least one batch must have formed.
				if kind == weightsAllDistinct && parRes.Stats.SpecBatches != 0 {
					t.Fatalf("%s: distinct weights speculated %d batches", tag, parRes.Stats.SpecBatches)
				}
				if kind == weightsAllEqual && parRes.Stats.SpecBatches != 1 {
					t.Fatalf("%s: all-equal weights formed %d batches, want 1", tag, parRes.Stats.SpecBatches)
				}
				if err := checkCounterConservation(parRes); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
			if seqRes.Stats.SpecBatches != 0 || seqRes.Stats.SpecQueries != 0 {
				t.Fatalf("sequential run reported speculation stats %+v", seqRes.Stats)
			}
		}
	}
}

// checkCounterConservation audits the speculation counters of a parallel
// result, which are merged from per-worker and per-round oracles: no lost
// updates and no double counting, including when batches are re-speculated.
//
//   - Every speculative query's answer is spent exactly once: used for the
//     edge's final decision (SpecHits) or discarded into a re-speculation
//     round (SpecWaste), so hits + waste == queries.
//   - Every edge is decided by exactly one mechanism: the live oracle's
//     sequential queries (short batches and straggler re-queries) or a
//     speculative hit. The live oracle's calls are OracleCalls minus the
//     speculative ones, giving hits + sequential == total - speculative,
//     i.e. OracleCalls + SpecHits == EdgesScanned + SpecQueries.
func checkCounterConservation(res *Result) error {
	s := res.Stats
	if s.SpecHits+s.SpecWaste != s.SpecQueries {
		return fmt.Errorf("spec accounting leak: hits %d + waste %d != queries %d",
			s.SpecHits, s.SpecWaste, s.SpecQueries)
	}
	if s.OracleCalls+s.SpecHits != int64(s.EdgesScanned)+s.SpecQueries {
		return fmt.Errorf("oracle-call conservation broken: calls %d + hits %d != scanned %d + queries %d",
			s.OracleCalls, s.SpecHits, int64(s.EdgesScanned), s.SpecQueries)
	}
	if s.SpecRequeries < 0 || s.SpecRounds < 0 || s.SpecWaste < 0 {
		return fmt.Errorf("negative counter in %+v", s)
	}
	if s.SpecRounds == 0 && s.SpecRequeries == 0 && s.SpecWaste != 0 {
		return fmt.Errorf("%d wasted answers but no round or re-query resolved them", s.SpecWaste)
	}
	return nil
}

// checkWitnesses revalidates every recorded witness of a result against the
// final spanner's own edges: forbidding the witness must stretch the kept
// edge beyond bound IN THE SPANNER AS OF THAT EDGE'S COMMIT. Rebuilding each
// prefix is quadratic, so it samples when the spanner is large.
func checkWitnesses(res *Result) error {
	prefix := graph.New(res.Input.NumVertices())
	var prefixIDs []int
	for i, gid := range res.Kept {
		e := res.Input.Edge(gid)
		w, ok := res.Witness[gid]
		if !ok {
			return fmt.Errorf("kept edge %d has no witness entry", gid)
		}
		if len(w) > res.Faults {
			return fmt.Errorf("kept edge %d witness %v exceeds budget %d", gid, w, res.Faults)
		}
		// Validate against the spanner built so far (before adding e).
		oracle, err := fault.NewOracle(prefix, res.Mode, fault.Options{EdgeCapacity: res.Input.NumEdges() + 1})
		if err != nil {
			return err
		}
		ww := w
		if res.Mode == fault.Edges {
			// Witnesses are stored as input edge IDs; translate back to the
			// prefix-spanner IDs they index.
			ww = make([]int, len(w))
			for j, inputID := range w {
				hid := -1
				for k, got := range prefixIDs {
					if got == inputID {
						hid = k
						break
					}
				}
				if hid < 0 {
					return fmt.Errorf("kept edge %d witness references input edge %d not in the spanner prefix", gid, inputID)
				}
				ww[j] = hid
			}
		}
		ok, err = oracle.ValidateWitness(e.U, e.V, res.Stretch*e.Weight, ww)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("kept edge %d (#%d): recorded witness %v does not stretch it", gid, i, w)
		}
		prefix.MustAddEdge(e.U, e.V, e.Weight)
		prefixIDs = append(prefixIDs, gid)
	}
	return nil
}

// TestGreedyParallelMatchesAblations runs the parallel builder against
// sequential builds under every oracle ablation: the kept set must be the
// same regardless of which accelerations either side uses.
func TestGreedyParallelMatchesAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(77077))
	ablations := []fault.Options{
		{DisablePruning: true, DisableMemo: true, DisableWitnessReuse: true, DisableBidi: true}, // fully naive
		{DisableWitnessReuse: true},
		{DisableBidi: true},
		{DisablePruning: true},
		{BlindWitnessCache: true},                      // PR3-era recency LRU
		{BlindWitnessCache: true, WitnessCacheSize: 1}, // degenerate capacity
		{WitnessCacheSize: 16},
	}
	instances := 10
	if testing.Short() {
		instances = 3
	}
	for inst := 0; inst < instances; inst++ {
		n := 8 + rng.Intn(8)
		g := randomInstance(rng, n, rng.Intn(2*n), weightsQuantized)
		mode := fault.Vertices
		if inst%2 == 1 {
			mode = fault.Edges
		}
		base := Options{Stretch: 3, Faults: 2, Mode: mode}
		want, err := Greedy(g, base)
		if err != nil {
			t.Fatal(err)
		}
		for ai, abl := range ablations {
			opts := base
			opts.Oracle = abl
			opts.Parallelism = 4
			got, err := Greedy(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Kept) != len(want.Kept) {
				t.Fatalf("inst %d ablation %d: kept %d vs %d", inst, ai, len(got.Kept), len(want.Kept))
			}
			for i := range got.Kept {
				if got.Kept[i] != want.Kept[i] {
					t.Fatalf("inst %d ablation %d: kept sets diverge at %d", inst, ai, i)
				}
			}
		}
	}
}

// TestGreedyParallelProgress checks the Progress contract under
// Parallelism: one call per edge in scan order, and abort-on-error.
func TestGreedyParallelProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	g := randomInstance(rng, 14, 30, weightsQuantized)
	var calls []int
	_, err := Greedy(g, Options{
		Stretch: 3, Faults: 1, Mode: fault.Vertices, Parallelism: 4,
		Progress: func(scanned, kept int) error {
			calls = append(calls, scanned)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != g.NumEdges() {
		t.Fatalf("progress fired %d times for %d edges", len(calls), g.NumEdges())
	}
	for i, s := range calls {
		if s != i {
			t.Fatalf("progress call %d reported scanned=%d", i, s)
		}
	}

	sentinel := errors.New("stop here")
	stopAt := g.NumEdges() / 2
	_, err = Greedy(g, Options{
		Stretch: 3, Faults: 1, Mode: fault.Vertices, Parallelism: 4,
		Progress: func(scanned, kept int) error {
			if scanned == stopAt {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("parallel build did not propagate the progress error: %v", err)
	}
}

// TestGreedyParallelValidation pins option validation and that P=1 is the
// sequential path.
func TestGreedyParallelValidation(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	if _, err := Greedy(g, Options{Stretch: 3, Mode: fault.Vertices, Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism must be rejected")
	}
	res, err := Greedy(g, Options{Stretch: 3, Mode: fault.Vertices, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpecBatches != 0 {
		t.Fatal("parallelism 1 must not speculate")
	}
}

// TestGreedyReSpeculationRounds forces the all-equal-weight worst case — a
// single batch spanning the whole scan on a dense graph where most edges are
// kept, so commits invalidate nearly every later speculative witness — and
// checks it resolves through parallel re-speculation rounds, not a
// sequential fallback: every invalidated edge is accounted to a round or to
// a sole-straggler re-query, and the counters conserve.
func TestGreedyReSpeculationRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	g := randomInstance(rng, 12, 60, weightsAllEqual)
	seqRes, err := Greedy(g, Options{Stretch: 2, Faults: 2, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(g, Options{Stretch: 2, Faults: 2, Mode: fault.Vertices, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpecBatches != 1 {
		t.Fatalf("all-equal weights formed %d batches, want 1", res.Stats.SpecBatches)
	}
	if res.Stats.SpecWaste == 0 {
		t.Fatal("dense all-equal instance produced no invalidated speculation; worst case not exercised")
	}
	if res.Stats.SpecRounds == 0 {
		t.Fatal("invalidated speculation resolved without any re-speculation round")
	}
	if err := checkCounterConservation(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != len(seqRes.Kept) {
		t.Fatalf("kept %d, sequential kept %d", len(res.Kept), len(seqRes.Kept))
	}
	for i := range res.Kept {
		if res.Kept[i] != seqRes.Kept[i] {
			t.Fatalf("kept sets diverge at %d", i)
		}
	}
	t.Logf("worst case: %d queries, %d hits, %d waste, %d rounds, %d re-queries",
		res.Stats.SpecQueries, res.Stats.SpecHits, res.Stats.SpecWaste,
		res.Stats.SpecRounds, res.Stats.SpecRequeries)
}

// TestGreedyParallelConcurrentBuilds runs several parallel builds at once to
// give the race detector cross-build interleavings (solver pools, shared
// input reads).
func TestGreedyParallelConcurrentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	g := randomInstance(rng, 16, 40, weightsQuantized)
	want, err := Greedy(g, Options{Stretch: 3, Faults: 2, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Greedy(g, Options{Stretch: 3, Faults: 2, Mode: fault.Vertices, Parallelism: 2 + i%3})
			if err != nil {
				errs[i] = err
				return
			}
			if len(res.Kept) != len(want.Kept) {
				errs[i] = fmt.Errorf("kept %d edges, want %d", len(res.Kept), len(want.Kept))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
}
