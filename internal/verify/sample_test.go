package verify

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// TestRandomChecksAllocateIndependentOfUniverse bounds what drawing fault
// sets costs: a check over an edgeless graph does no search work, so its
// allocations are the draws plus per-check scratch. A draw that allocated in
// the universe's size (a whole permutation per trial) needs about 2 MB per
// trial at 2^18 vertices.
func TestRandomChecksAllocateIndependentOfUniverse(t *testing.T) {
	const n, f, trials = 1 << 18, 4, 64
	inst := subInstance(t, graph.New(n), nil)
	for _, check := range []struct {
		name string
		run  func() error
	}{
		{"RandomCheck", func() error {
			return inst.RandomCheck(3, fault.Vertices, f, trials, rand.New(rand.NewSource(1)))
		}},
		{"ParallelRandomCheck", func() error {
			return inst.ParallelRandomCheck(3, fault.Vertices, f, trials, 2, rand.New(rand.NewSource(1)))
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := check.run(); err != nil {
			t.Fatalf("%s: %v", check.name, err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d trials at |V| = %d allocated %d bytes", check.name, trials, n, got)
		if got > 16<<20 {
			t.Errorf("%s: %d trials at |V| = %d allocated %d bytes, want at most %d", check.name, trials, n, got, 16<<20)
		}
	}
}

// TestFaultSamplerUniform checks the draw's distribution: sizes uniform in
// [0, f], members distinct and in range, and every element equally likely.
func TestFaultSamplerUniform(t *testing.T) {
	const universe, f, draws = 7, 3, 70000
	g := graph.New(universe)
	draw := subInstance(t, g, nil).newFaultSampler(fault.Vertices, f, rand.New(rand.NewSource(5)))
	sizes := make([]int, f+1)
	hits := make([]int, universe)
	for i := 0; i < draws; i++ {
		set := draw.next()
		sizes[len(set)]++
		seen := map[int]bool{}
		for _, v := range set {
			if v < 0 || v >= universe || seen[v] {
				t.Fatalf("draw %v: member %d out of range or repeated", set, v)
			}
			seen[v] = true
			hits[v]++
		}
	}
	for size, c := range sizes {
		if want := draws / (f + 1); c < want*9/10 || c > want*11/10 {
			t.Errorf("size %d drawn %d times, want about %d", size, c, want)
		}
	}
	// E[size] = f/2, so each element is drawn draws·(f/2)/universe times.
	want := draws * f / 2 / universe
	for v, c := range hits {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("element %d drawn %d times, want about %d", v, c, want)
		}
	}

	// A size cap: a universe smaller than f yields at most the universe.
	small := subInstance(t, graph.New(2), nil).newFaultSampler(fault.Vertices, 5, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		if set := small.next(); len(set) > 2 {
			t.Fatalf("draw %v exceeds a universe of 2", set)
		}
	}
}
