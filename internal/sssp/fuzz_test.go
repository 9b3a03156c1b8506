package sssp

import (
	"math/rand"
	"testing"

	"github.com/ftspanner/ftspanner/internal/bitset"
)

// FuzzReachBidiDifferential derives a random bounded-reachability query from
// the fuzzed parameters and cross-checks RunReachBidi against RunReach,
// including full validation of the bidirectional path (simplicity, masks,
// bound), then holds every engine to the BellmanFord reference. Seed corpus lives in testdata/fuzz/FuzzReachBidiDifferential;
// `go test` replays it on every run, and
// `go test -fuzz=FuzzReachBidiDifferential ./internal/sssp` explores further.
func FuzzReachBidiDifferential(f *testing.F) {
	f.Add(int64(1), uint64(6), uint64(8), uint64(3), false, false)
	f.Add(int64(2), uint64(16), uint64(40), uint64(0), true, true)
	f.Add(int64(3), uint64(9), uint64(0), uint64(12), true, false)
	f.Add(int64(20260726), uint64(22), uint64(66), uint64(7), false, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, boundRaw uint64, maskV, maskE bool) {
		n := int(2 + nRaw%24)       // 2..25 vertices
		extra := int(extraRaw % 80) // up to 80 extra edges attempted
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, extra)
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (u + 1) % n
		}
		var fv, fe *bitset.Set
		if maskV {
			fv = bitset.New(n)
			for i := 0; i < rng.Intn(n); i++ {
				if x := rng.Intn(n); x != u {
					fv.Add(x)
				}
			}
		}
		if maskE && g.NumEdges() > 0 {
			fe = bitset.New(g.NumEdges())
			for i := 0; i < rng.Intn(g.NumEdges()+1); i++ {
				fe.Add(rng.Intn(g.NumEdges()))
			}
		}
		// boundRaw 0 means unbounded; otherwise spread over (0, ~13].
		bound := float64(boundRaw%1024) / 80
		checkBidiAgainstReach(t, g, u, v, fv, fe, bound)
		checkReachAgainstReference(t, g, u, v, Options{ForbiddenVertices: fv, ForbiddenEdges: fe, Bound: bound}, false)
	})
}
