package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/girth"
	"github.com/ftspanner/ftspanner/internal/verify"
)

func TestGreedyOptionValidation(t *testing.T) {
	g := gen.Complete(4)
	tests := []struct {
		name string
		opts core.Options
	}{
		{name: "stretch < 1", opts: core.Options{Stretch: 0.5, Faults: 1, Mode: fault.Vertices}},
		{name: "NaN stretch", opts: core.Options{Stretch: math.NaN(), Faults: 1, Mode: fault.Vertices}},
		{name: "+Inf stretch", opts: core.Options{Stretch: math.Inf(1), Faults: 1, Mode: fault.Vertices}},
		{name: "negative faults", opts: core.Options{Stretch: 3, Faults: -1, Mode: fault.Vertices}},
		{name: "bad mode", opts: core.Options{Stretch: 3, Faults: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := core.Greedy(g, tt.opts); err == nil {
				t.Error("want error")
			}
		})
	}
	if _, err := core.Greedy(nil, core.Options{Stretch: 3, Faults: 1, Mode: fault.Vertices}); err == nil {
		t.Error("nil graph should error")
	}
}

func TestGreedyZeroFaultsMatchesPlainGreedy(t *testing.T) {
	// With f=0 the FT greedy keeps an edge iff the empty fault set works,
	// which is exactly the classical greedy condition.
	rng := rand.New(rand.NewSource(1))
	base, err := gen.ConnectedGNM(30, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.GreedyVFT(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := verify.NewInstance(g, res.Spanner, res.Kept)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.CheckFaultSet(3, fault.Vertices, nil); err != nil {
		t.Errorf("f=0 output is not a 3-spanner: %v", err)
	}
	// All witnesses must be empty.
	for gid, w := range res.Witness {
		if len(w) != 0 {
			t.Errorf("edge %d has non-empty witness %v at f=0", gid, w)
		}
	}
}

func TestGreedyVFTOnK8Exhaustive(t *testing.T) {
	// Small enough to verify Definition 2 exhaustively for f=2.
	g := gen.Complete(8)
	res, err := core.GreedyVFT(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := verify.NewInstance(g, res.Spanner, res.Kept)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ExhaustiveCheck(3, fault.Vertices, 2); err != nil {
		t.Errorf("VFT output fails exhaustive verification: %v", err)
	}
	// K8 minus nothing: at f=2 the spanner must be denser than at f=0.
	res0, err := core.GreedyVFT(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.NumEdges() <= res0.Spanner.NumEdges() {
		t.Errorf("f=2 spanner (%d edges) not larger than f=0 (%d edges)",
			res.Spanner.NumEdges(), res0.Spanner.NumEdges())
	}
}

func TestGreedyEFTOnK7Exhaustive(t *testing.T) {
	g := gen.Complete(7)
	res, err := core.GreedyEFT(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := verify.NewInstance(g, res.Spanner, res.Kept)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ExhaustiveCheck(3, fault.Edges, 2); err != nil {
		t.Errorf("EFT output fails exhaustive verification: %v", err)
	}
}

func TestGreedyWitnessesAreValid(t *testing.T) {
	// Each recorded witness F_e must actually block edge e at its insertion
	// time; at the end of the run it must still satisfy the weaker property
	// dist_{H\F_e}(u,v) can only have decreased... so we check the defining
	// property on the final spanner minus the edge itself: removing e and
	// F_e leaves distance > k*w (true at insertion; later edges are heavier
	// but may create shortcuts — so we check at minimum that |F_e| <= f and
	// endpoints are excluded).
	g := gen.Complete(9)
	const f = 2
	res, err := core.GreedyVFT(g, 3, f)
	if err != nil {
		t.Fatal(err)
	}
	for gid, w := range res.Witness {
		if len(w) > f {
			t.Errorf("edge %d witness %v larger than f", gid, w)
		}
		e := g.Edge(gid)
		for _, x := range w {
			if x == e.U || x == e.V {
				t.Errorf("edge %d witness %v contains an endpoint", gid, w)
			}
			if x < 0 || x >= g.NumVertices() {
				t.Errorf("edge %d witness vertex %d out of range", gid, x)
			}
		}
	}
	if len(res.Witness) != res.Spanner.NumEdges() {
		t.Errorf("witness count %d != kept edges %d", len(res.Witness), res.Spanner.NumEdges())
	}
}

func TestGreedyKeptBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base, err := gen.ConnectedGNM(20, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.GreedyVFT(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != res.Spanner.NumEdges() {
		t.Fatalf("Kept length %d != spanner edges %d", len(res.Kept), res.Spanner.NumEdges())
	}
	if res.KeptSet.Count() != len(res.Kept) {
		t.Error("KeptSet disagrees with Kept")
	}
	for hid, gid := range res.Kept {
		if !res.KeptSet.Contains(gid) {
			t.Errorf("kept edge %d missing from KeptSet", gid)
		}
		he, ge := res.Spanner.Edge(hid), g.Edge(gid)
		hu, hv := he.Endpoints()
		gu, gv := ge.Endpoints()
		if hu != gu || hv != gv || he.Weight != ge.Weight {
			t.Errorf("mapping mismatch: H %v vs G %v", he, ge)
		}
	}
	if res.Stats.EdgesScanned != g.NumEdges() {
		t.Errorf("EdgesScanned = %d, want %d", res.Stats.EdgesScanned, g.NumEdges())
	}
	if res.Stats.OracleCalls != int64(g.NumEdges()) {
		t.Errorf("OracleCalls = %d, want %d", res.Stats.OracleCalls, g.NumEdges())
	}
	if res.Stats.Dijkstras < res.Stats.OracleCalls {
		t.Error("Dijkstras should be at least one per oracle call")
	}
	if res.Stretch != 2 || res.Faults != 1 || res.Mode != fault.Vertices {
		t.Error("result echo fields wrong")
	}
}

func TestGreedyVFTSpannersGrowWithF(t *testing.T) {
	// Monotonicity in f is not a theorem edge-by-edge, but on a fixed
	// complete graph the total size must be non-decreasing... the greedy
	// keeps any edge a smaller-f greedy keeps (a witness for budget f is a
	// witness for budget f+1) as long as the partial spanners coincide; we
	// only assert the overall sizes are non-decreasing, which holds by
	// induction on the identical scan order.
	g := gen.Complete(10)
	prev := -1
	for f := 0; f <= 3; f++ {
		res, err := core.GreedyVFT(g, 3, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Spanner.NumEdges() < prev {
			t.Errorf("f=%d spanner smaller than f=%d", f, f-1)
		}
		prev = res.Spanner.NumEdges()
	}
}

func TestGreedyGirthOfQuotient(t *testing.T) {
	// For f=0 and integer stretch k, greedy output has girth > k+1 — the
	// size analysis of the paper generalizes this via blocking sets.
	g := gen.Complete(16)
	res, err := core.GreedyVFT(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gg := girth.Girth(res.Spanner); gg <= 4 {
		t.Errorf("f=0 stretch-3 spanner girth = %d, want > 4", gg)
	}
}

func TestGreedyOracleAblationsAgree(t *testing.T) {
	g := gen.Complete(9)
	var sizes []int
	for _, oopts := range []fault.Options{
		{},
		{DisablePruning: true},
		{DisableMemo: true},
		{DisablePruning: true, DisableMemo: true},
	} {
		res, err := core.Greedy(g, core.Options{Stretch: 3, Faults: 2, Mode: fault.Vertices, Oracle: oopts})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, res.Spanner.NumEdges())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			t.Fatalf("oracle ablations disagree on spanner size: %v", sizes)
		}
	}
}

// TestQuickGreedyOutputsAreFaultTolerant is the headline property test:
// random graphs, random parameters, exhaustive fault verification.
func TestQuickGreedyOutputsAreFaultTolerant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		maxM := n * (n - 1) / 2
		m := (n - 1) + rng.Intn(maxM-(n-1)+1)
		base, err := gen.ConnectedGNM(n, m, rng)
		if err != nil {
			return false
		}
		g, err := gen.RandomizeWeights(base, 1, 2, rng)
		if err != nil {
			return false
		}
		mode := fault.Vertices
		if rng.Intn(2) == 0 {
			mode = fault.Edges
		}
		stretch := []float64{1.5, 2, 3}[rng.Intn(3)]
		faults := rng.Intn(3)
		res, err := core.Greedy(g, core.Options{Stretch: stretch, Faults: faults, Mode: mode})
		if err != nil {
			return false
		}
		inst, err := verify.NewInstance(g, res.Spanner, res.Kept)
		if err != nil {
			return false
		}
		return inst.ExhaustiveCheck(stretch, mode, faults) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGreedyVFTK20F2(b *testing.B) {
	g := gen.Complete(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyVFT(g, 3, 2); err != nil {
			b.Fatal(err)
		}
	}
}
