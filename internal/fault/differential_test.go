package fault

import (
	"math/rand"
	"testing"

	"github.com/ftspanner/ftspanner/internal/bitset"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/sssp"
)

// naiveOptions strips every acceleration: the oracle runs the plain
// hitting-set branching, which is the reference the optimized configuration
// must agree with exactly.
var naiveOptions = Options{DisablePruning: true, DisableMemo: true}

// TestDifferentialOracleAgainstNaive is the PR's correctness lock: on
// hundreds of random (graph, stretch, budget) instances in both modes, the
// fully accelerated oracle and the ablated naive oracle must return the
// same decision for every query, and every returned witness must actually
// witness (checked by a direct masked shortest-path query). Memoization,
// pruning and the packing seed all preserve exactness iff this holds.
func TestDifferentialOracleAgainstNaive(t *testing.T) {
	instances := 300
	if testing.Short() {
		instances = 60
	}
	rng := rand.New(rand.NewSource(20260726))
	for inst := 0; inst < instances; inst++ {
		n := 6 + rng.Intn(9)           // 6..14 vertices
		extra := rng.Intn(2 * n)       // sparse to fairly dense
		stretch := 1 + 2*rng.Float64() // 1..3
		budget := rng.Intn(4)          // 0..3
		mode := Vertices
		if inst%2 == 1 {
			mode = Edges
		}
		g := randomConnectedGraph(rng, n, extra)

		opt, err := NewOracle(g, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewOracle(g, mode, naiveOptions)
		if err != nil {
			t.Fatal(err)
		}

		// Query every edge of the graph on the same shared oracles, so the
		// memo table carries state across queries exactly as it does inside
		// the greedy.
		for _, e := range g.EdgesByWeight() {
			bound := stretch * e.Weight
			wOpt, foundOpt, err := opt.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatalf("instance %d edge %d: optimized: %v", inst, e.ID, err)
			}
			_, foundNaive, err := naive.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatalf("instance %d edge %d: naive: %v", inst, e.ID, err)
			}
			if foundOpt != foundNaive {
				t.Fatalf("instance %d (mode=%v n=%d m=%d stretch=%v budget=%d) edge (%d,%d): optimized=%v naive=%v",
					inst, mode, n, g.NumEdges(), stretch, budget, e.U, e.V, foundOpt, foundNaive)
			}
			if foundOpt {
				if len(wOpt) > budget {
					t.Fatalf("instance %d edge %d: witness %v exceeds budget %d", inst, e.ID, wOpt, budget)
				}
				// A valid witness must stretch the pair on its own: rerun the
				// query with budget 0 after applying the witness via a naive
				// oracle's forbidden machinery — cheapest done by checking
				// that the witness is confirmed as "extendable by 0 faults".
				if !witnessHolds(t, g, mode, e.U, e.V, bound, wOpt) {
					t.Fatalf("instance %d edge %d: returned witness %v does not stretch the pair", inst, e.ID, wOpt)
				}
			}
		}
	}
}

// witnessHolds checks dist_{g\w}(u,v) > bound by masking the witness
// elements in a direct shortest-path query — an implementation-independent
// validation of the witness the optimized oracle returned.
func witnessHolds(t *testing.T, g *graph.Graph, mode Mode, u, v int, bound float64, w []int) bool {
	t.Helper()
	opts := sssp.Options{}
	if mode == Vertices {
		opts.ForbiddenVertices = bitset.FromSlice(g.NumVertices(), w)
		if opts.ForbiddenVertices.Contains(u) || opts.ForbiddenVertices.Contains(v) {
			return false
		}
	} else {
		opts.ForbiddenEdges = bitset.FromSlice(g.NumEdges(), w)
	}
	return sssp.Dist(g, u, v, opts) > bound
}
