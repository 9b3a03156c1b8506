package core

import (
	"math/rand"
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// naiveOracle strips every oracle acceleration, leaving the plain
// exponential hitting-set branching as the reference implementation.
var naiveOracle = fault.Options{DisablePruning: true, DisableMemo: true}

func randomConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(perm[i], perm[rng.Intn(i)], 1+2*rng.Float64())
	}
	for tries := 0; tries < 4*extra; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+2*rng.Float64())
		}
	}
	return g
}

// TestGreedyDifferentialOptimizedVsNaive is the build-level acceptance
// criterion of the oracle overhaul: the full greedy with the optimized
// oracle and with the ablated naive oracle must produce IDENTICAL kept-edge
// sets on randomized instances in both fault modes. (Witnesses may differ —
// several valid ones can exist — but the kept set is determined by the
// oracle's exact yes/no answers alone.)
func TestGreedyDifferentialOptimizedVsNaive(t *testing.T) {
	instances := 120
	if testing.Short() {
		instances = 24
	}
	rng := rand.New(rand.NewSource(424242))
	for inst := 0; inst < instances; inst++ {
		n := 8 + rng.Intn(10)
		g := randomConnected(rng, n, rng.Intn(3*n))
		stretch := []float64{1.5, 2, 3, 5}[rng.Intn(4)]
		faults := rng.Intn(4)
		mode := fault.Vertices
		if inst%2 == 1 {
			mode = fault.Edges
		}

		optRes, err := Greedy(g, Options{Stretch: stretch, Faults: faults, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		naiveRes, err := Greedy(g, Options{Stretch: stretch, Faults: faults, Mode: mode, Oracle: naiveOracle})
		if err != nil {
			t.Fatal(err)
		}

		if len(optRes.Kept) != len(naiveRes.Kept) {
			t.Fatalf("instance %d (mode=%v n=%d m=%d k=%v f=%d): optimized kept %d edges, naive kept %d",
				inst, mode, n, g.NumEdges(), stretch, faults, len(optRes.Kept), len(naiveRes.Kept))
		}
		for i := range optRes.Kept {
			if optRes.Kept[i] != naiveRes.Kept[i] {
				t.Fatalf("instance %d (mode=%v k=%v f=%d): kept sets diverge at position %d: %d != %d",
					inst, mode, stretch, faults, i, optRes.Kept[i], naiveRes.Kept[i])
			}
		}
	}
}
