package spanner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/girth"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/sssp"
)

// maxEdgeStretch returns the maximum over edges (u,v) of G of
// dist_H(u,v)/w(u,v). By the per-edge certificate lemma this equals the
// spanner stretch of H for G.
func maxEdgeStretch(t *testing.T, g, h *graph.Graph) float64 {
	t.Helper()
	solver := sssp.NewSolver(g.NumVertices())
	worst := 0.0
	for _, e := range g.Edges() {
		if err := solver.RunTarget(h, e.U, e.V, sssp.Options{}); err != nil {
			t.Fatalf("solver: %v", err)
		}
		d := solver.Dist(e.V)
		if math.IsInf(d, 1) {
			return math.Inf(1)
		}
		if s := d / e.Weight; s > worst {
			worst = s
		}
	}
	return worst
}

func TestGreedyStretchInvalid(t *testing.T) {
	if _, err := Greedy(gen.Complete(4), 0.5); err == nil {
		t.Error("stretch < 1 should error")
	}
}

func TestGreedyStretchOneKeepsShortestEdges(t *testing.T) {
	// With t=1 the greedy keeps an edge iff no equally-short path already
	// exists; on a unit-weight complete graph it keeps a spanning structure
	// preserving all distances exactly.
	g := gen.Complete(6)
	res, err := Greedy(g, 1)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if got := maxEdgeStretch(t, g, res.Spanner); got > 1 {
		t.Errorf("stretch = %v, want <= 1", got)
	}
	// Unit-weight K6 at stretch 1: every edge is its own unique shortest
	// path, so everything is kept.
	if res.Spanner.NumEdges() != g.NumEdges() {
		t.Errorf("t=1 on K6 kept %d edges, want %d", res.Spanner.NumEdges(), g.NumEdges())
	}
}

func TestGreedyCompleteGraphStretch3(t *testing.T) {
	g := gen.Complete(20)
	res, err := Greedy(g, 3)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if got := maxEdgeStretch(t, g, res.Spanner); got > 3 {
		t.Errorf("stretch = %v, want <= 3", got)
	}
	// Unit-weight K20 at stretch 3: greedy output has girth > 4, so by the
	// Moore bound it is far from complete; and it must be connected.
	if res.Spanner.NumEdges() >= g.NumEdges() {
		t.Error("greedy failed to sparsify K20")
	}
	if !res.Spanner.IsConnected() {
		t.Error("spanner of a connected graph must be connected")
	}
}

func TestGreedyGirthProperty(t *testing.T) {
	// Classical fact: the greedy t-spanner has girth > t+1 (for integer t
	// and any weights): both endpoints of the closing edge of any short
	// cycle would have been within stretch via the rest of the cycle.
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ConnectedGNM(40, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, stretch := range []int{1, 3, 5} {
		res, err := Greedy(g, float64(stretch))
		if err != nil {
			t.Fatalf("Greedy(%d): %v", stretch, err)
		}
		if gg := girth.Girth(res.Spanner); gg <= stretch+1 {
			t.Errorf("stretch %d: spanner girth = %d, want > %d", stretch, gg, stretch+1)
		}
	}
}

func TestGreedyKeptMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base, err := gen.ConnectedGNM(30, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(g, 2)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if len(res.Kept) != res.Spanner.NumEdges() {
		t.Fatalf("Kept has %d entries for %d spanner edges", len(res.Kept), res.Spanner.NumEdges())
	}
	for sid, gid := range res.Kept {
		se, ge := res.Spanner.Edge(sid), g.Edge(gid)
		if se.Weight != ge.Weight {
			t.Fatalf("weight mismatch: spanner %v vs input %v", se, ge)
		}
		su, sv := se.Endpoints()
		gu, gv := ge.Endpoints()
		if su != gu || sv != gv {
			t.Fatalf("endpoint mismatch: spanner %v vs input %v", se, ge)
		}
	}
	kb := res.KeptBool(g.NumEdges())
	cnt := 0
	for _, b := range kb {
		if b {
			cnt++
		}
	}
	if cnt != len(res.Kept) {
		t.Error("KeptBool disagrees with Kept")
	}
}

func TestQuickGreedyIsSpanner(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		m := (n - 1) + rng.Intn(n*(n-1)/2-(n-1)+1)
		base, err := gen.ConnectedGNM(n, m, rng)
		if err != nil {
			return false
		}
		g, err := gen.RandomizeWeights(base, 1, 3, rng)
		if err != nil {
			return false
		}
		stretch := []float64{1, 1.5, 3, 5}[rng.Intn(4)]
		res, err := Greedy(g, stretch)
		if err != nil {
			return false
		}
		return maxEdgeStretch(t, g, res.Spanner) <= stretch+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBaswanaSenInvalidK(t *testing.T) {
	if _, err := BaswanaSen(gen.Complete(4), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("k=0 should error")
	}
}

func TestBaswanaSenK1IsIdentity(t *testing.T) {
	g := gen.Complete(7)
	res, err := BaswanaSen(g, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.NumEdges() != g.NumEdges() {
		t.Errorf("k=1 kept %d of %d edges", res.Spanner.NumEdges(), g.NumEdges())
	}
}

func TestBaswanaSenStretchOnCompleteGraph(t *testing.T) {
	g := gen.Complete(40)
	for _, k := range []int{2, 3} {
		res, err := BaswanaSen(g, k, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("BaswanaSen(k=%d): %v", k, err)
		}
		bound := float64(2*k - 1)
		if got := maxEdgeStretch(t, g, res.Spanner); got > bound {
			t.Errorf("k=%d: stretch %v > %v", k, got, bound)
		}
	}
}

func TestBaswanaSenSparsifies(t *testing.T) {
	// On K64 with k=2 the expected size is O(n^{1.5}); complete is n²/2.
	g := gen.Complete(64)
	res, err := BaswanaSen(g, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	nf := float64(g.NumVertices())
	limit := 6 * nf * math.Sqrt(nf) // generous constant over n^{1.5}
	if float64(res.Spanner.NumEdges()) > limit {
		t.Errorf("k=2 spanner of K64 has %d edges, want <= %v", res.Spanner.NumEdges(), limit)
	}
	if res.Spanner.NumEdges() >= g.NumEdges() {
		t.Error("failed to sparsify at all")
	}
}

func TestQuickBaswanaSenIsSpanner(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := (n - 1) + rng.Intn(n*(n-1)/2-(n-1)+1)
		base, err := gen.ConnectedGNM(n, m, rng)
		if err != nil {
			return false
		}
		g, err := gen.RandomizeWeights(base, 1, 4, rng)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(2)
		res, err := BaswanaSen(g, k, rng)
		if err != nil {
			return false
		}
		return maxEdgeStretch(t, g, res.Spanner) <= float64(2*k-1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBaswanaSenKeptMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.Complete(25)
	res, err := BaswanaSen(g, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != res.Spanner.NumEdges() {
		t.Fatalf("Kept/%d vs spanner edges/%d", len(res.Kept), res.Spanner.NumEdges())
	}
	seen := make(map[int]bool)
	for sid, gid := range res.Kept {
		if seen[gid] {
			t.Fatalf("input edge %d kept twice", gid)
		}
		seen[gid] = true
		if res.Spanner.Edge(sid).Weight != g.Edge(gid).Weight {
			t.Fatal("weight mismatch in mapping")
		}
	}
}

func BenchmarkGreedyStretch3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base, err := gen.ConnectedGNM(150, 1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaswanaSenK2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base, err := gen.ConnectedGNM(300, 4000, rng)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.RandomizeWeights(base, 1, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BaswanaSen(g, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBaswanaSenReproducible runs each seed several times: one seed must
// give one spanner, edge order and all, because the spanner's text and
// digest follow its edge order.
func TestBaswanaSenReproducible(t *testing.T) {
	g, err := gen.RandomizeWeights(gen.Complete(40), 1, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		var want string
		for run := 0; run < 5; run++ {
			res, err := BaswanaSen(g, 3, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if d := res.Spanner.Digest(); run == 0 {
				want = d
			} else if d != want {
				t.Fatalf("seed %d run %d: spanner digest %s, first run %s", seed, run, d, want)
			}
		}
	}
}
