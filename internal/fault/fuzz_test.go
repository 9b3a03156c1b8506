package fault

import (
	"math/rand"
	"testing"
)

// FuzzOracleDifferential derives a small random instance from the fuzzed
// parameters and cross-checks the fully accelerated oracle against the
// ablated naive one on every edge query. Seed corpus lives in
// testdata/fuzz/FuzzOracleDifferential; `go test` replays it on every run,
// and `go test -fuzz=FuzzOracleDifferential ./internal/fault` explores
// further.
func FuzzOracleDifferential(f *testing.F) {
	f.Add(int64(1), uint64(8), uint64(10), uint64(1), false)
	f.Add(int64(2), uint64(12), uint64(30), uint64(2), true)
	f.Add(int64(3), uint64(6), uint64(0), uint64(3), false)
	f.Add(int64(20260726), uint64(14), uint64(40), uint64(0), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, budgetRaw uint64, edgeMode bool) {
		n := int(2 + nRaw%13)       // 2..14 vertices
		extra := int(extraRaw % 40) // up to 40 extra edges attempted
		budget := int(budgetRaw % 4)
		mode := Vertices
		if edgeMode {
			mode = Edges
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, n, extra)
		if g.NumEdges() == 0 {
			return
		}
		stretch := 1 + 2*rng.Float64()

		opt, err := NewOracle(g, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewOracle(g, mode, naiveOptions)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.EdgesByWeight() {
			bound := stretch * e.Weight
			w, foundOpt, err := opt.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatal(err)
			}
			_, foundNaive, err := naive.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatal(err)
			}
			if foundOpt != foundNaive {
				t.Fatalf("seed=%d n=%d mode=%v budget=%d edge (%d,%d) bound=%v: optimized=%v naive=%v",
					seed, n, mode, budget, e.U, e.V, bound, foundOpt, foundNaive)
			}
			if foundOpt && !witnessHolds(t, g, mode, e.U, e.V, bound, w) {
				t.Fatalf("seed=%d edge (%d,%d): invalid witness %v", seed, e.U, e.V, w)
			}
		}
	})
}
