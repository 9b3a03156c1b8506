package core

import (
	"math/rand"
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
)

// FuzzPipelinedGreedyDifferential hammers the speculative engine's commit
// and re-speculation logic: for fuzzer-chosen instance shape, weight
// structure, fault mode, and parallelism, the kept-edge sequence and spanner
// digest must be byte-identical to the sequential scan's, and the
// speculation counters must conserve. The seed corpus pins the regimes the
// engine special-cases — all-equal weights (one batch spanning the scan,
// everything resolved through rounds), all-distinct (no speculation at
// all), quantized ties, and both fault modes. The name predates the
// pipeline's removal and is kept so CI and seed references stay stable.
func FuzzPipelinedGreedyDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(12), uint8(1), uint8(0), uint8(2), uint8(2))
	f.Add(int64(2), uint8(14), uint8(30), uint8(3), uint8(1), uint8(1), uint8(4))
	f.Add(int64(3), uint8(9), uint8(20), uint8(2), uint8(0), uint8(3), uint8(3))
	f.Add(int64(4), uint8(16), uint8(8), uint8(0), uint8(1), uint8(0), uint8(8))
	f.Add(int64(5), uint8(8), uint8(40), uint8(1), uint8(0), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, extra, kindSel, modeSel, faults, p uint8) {
		nv := 4 + int(n%16)
		kind := weightKind(kindSel % 4)
		mode := fault.Vertices
		if modeSel%2 == 1 {
			mode = fault.Edges
		}
		parallelism := 2 + int(p%7)
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, nv, int(extra)%(3*nv), kind)
		opts := Options{
			Stretch: []float64{1.5, 2, 3, 5}[seed&3],
			Faults:  int(faults % 4),
			Mode:    mode,
		}
		seqRes, err := Greedy(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		popts := opts
		popts.Parallelism = parallelism
		parRes, err := Greedy(g, popts)
		if err != nil {
			t.Fatal(err)
		}
		if len(parRes.Kept) != len(seqRes.Kept) {
			t.Fatalf("P=%d kept %d edges, sequential kept %d",
				parallelism, len(parRes.Kept), len(seqRes.Kept))
		}
		for i := range parRes.Kept {
			if parRes.Kept[i] != seqRes.Kept[i] {
				t.Fatalf("P=%d kept sets diverge at %d: %d != %d",
					parallelism, i, parRes.Kept[i], seqRes.Kept[i])
			}
		}
		if sd, pd := seqRes.Spanner.Digest(), parRes.Spanner.Digest(); sd != pd {
			t.Fatalf("P=%d spanner digest %s != sequential %s", parallelism, pd, sd)
		}
		if err := checkCounterConservation(parRes); err != nil {
			t.Fatalf("P=%d: %v", parallelism, err)
		}
	})
}
