package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/verify"
)

func TestConservativeOptionValidation(t *testing.T) {
	g := gen.Complete(4)
	bad := []core.Options{
		{Stretch: 0.5, Faults: 1, Mode: fault.Vertices},
		{Stretch: math.NaN(), Faults: 1, Mode: fault.Vertices},
		{Stretch: math.Inf(1), Faults: 1, Mode: fault.Vertices},
		{Stretch: 3, Faults: -1, Mode: fault.Vertices},
		{Stretch: 3, Faults: 1},
	}
	for _, opts := range bad {
		if _, err := core.GreedyConservative(g, opts); err == nil {
			t.Errorf("options %+v should error", opts)
		}
	}
	if _, err := core.GreedyConservative(nil, core.Options{Stretch: 3, Faults: 1, Mode: fault.Vertices}); err == nil {
		t.Error("nil graph should error")
	}
}

func TestConservativeNeverSparserThanExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, err := gen.ConnectedGNM(30, 250, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= 3; f++ {
		exact, err := core.GreedyVFT(g, 3, f)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := core.ConservativeVFT(g, 3, f)
		if err != nil {
			t.Fatal(err)
		}
		if cons.Spanner.NumEdges() < exact.Spanner.NumEdges() {
			t.Errorf("f=%d: conservative %d < exact %d — soundness bug",
				f, cons.Spanner.NumEdges(), exact.Spanner.NumEdges())
		}
	}
}

func TestConservativeWorkIsPolynomial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base, err := gen.ConnectedGNM(40, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []int{1, 4, 8} {
		res, err := core.ConservativeVFT(g, 3, f)
		if err != nil {
			t.Fatal(err)
		}
		// At most f+2 Dijkstras per edge (f+1 packing runs + slack).
		if limit := int64((f + 2) * g.NumEdges()); res.Stats.Dijkstras > limit {
			t.Errorf("f=%d: %d dijkstras exceed the polynomial budget %d",
				f, res.Stats.Dijkstras, limit)
		}
	}
}

func TestConservativeHasNoWitnesses(t *testing.T) {
	g := gen.Complete(8)
	res, err := core.ConservativeVFT(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness != nil {
		t.Error("conservative results must not fabricate witnesses")
	}
}

func TestConservativeZeroFaults(t *testing.T) {
	// f=0: reject iff one detour exists — identical condition to the exact
	// greedy, so outputs coincide edge for edge.
	rng := rand.New(rand.NewSource(3))
	base, err := gen.ConnectedGNM(25, 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.GreedyVFT(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := core.ConservativeVFT(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Kept) != len(cons.Kept) {
		t.Fatalf("f=0 outputs differ in size: %d vs %d", len(exact.Kept), len(cons.Kept))
	}
	for i := range exact.Kept {
		if exact.Kept[i] != cons.Kept[i] {
			t.Fatalf("f=0 outputs differ at position %d", i)
		}
	}
}

// TestQuickConservativeIsFaultTolerant: the headline soundness property,
// verified exhaustively on small random instances for both modes.
func TestQuickConservativeIsFaultTolerant(t *testing.T) {
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
		res, err := core.GreedyConservative(g, core.Options{Stretch: stretch, Faults: faults, Mode: mode})
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

func BenchmarkConservativeVFTF4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base, err := gen.ConnectedGNM(80, 1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ConservativeVFT(g, 3, 4); err != nil {
			b.Fatal(err)
		}
	}
}
