package sssp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ftspanner/ftspanner/internal/bitset"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// weightClass names an edge-weight distribution that stresses a queue keyed
// on the IEEE-754 bits of the distances.
type weightClass int

const (
	unitWeights      weightClass = iota // every weight 1: BFS layers
	tiedWeights                         // {0.25, 0.5, 0.75}: many exact ties
	wideWeights                         // 10^u, u uniform in [-300, 300]
	subnormalWeights                    // k·2^-1074, k in [1, 1000]
	mixedWeights                        // subnormal and 1e300 side by side: sums absorb weights
	smoothWeights                       // 0.1 + U[0,1): distinct, rounded sums
	numWeightClasses
)

var weightClassNames = [numWeightClasses]string{"unit", "tied", "wide", "subnormal", "mixed", "smooth"}

// exact reports whether every path sum in the class is computed without
// rounding (small integers, dyadic quarters, multiples of the smallest
// subnormal), so all four engines must agree bit for bit.
func (c weightClass) exact() bool {
	return c == unitWeights || c == tiedWeights || c == subnormalWeights
}

func (c weightClass) draw(rng *rand.Rand) float64 {
	switch c {
	case unitWeights:
		return 1
	case tiedWeights:
		return 0.25 * float64(1+rng.Intn(3))
	case wideWeights:
		return math.Pow(10, -300+600*rng.Float64())
	case subnormalWeights:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case mixedWeights:
		if rng.Intn(2) == 0 {
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(4))
		}
		return 1e300 * float64(1+rng.Intn(2))
	default:
		return 0.1 + rng.Float64()
	}
}

// classGraph is randomGraph with the class's weights: a random spanning
// tree plus up to extra random edges.
func classGraph(rng *rand.Rand, n, extra int, c weightClass) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(perm[i], perm[rng.Intn(i)], c.draw(rng))
	}
	for tries := 0; tries < extra; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, c.draw(rng))
	}
	return g
}

// roundingSlack bounds how far two summation orders of the same `terms`
// positive floats, whose sums stay near x, can drift apart: one rounding
// per term of at most an ulp of x, plus the subnormal spacing.
func roundingSlack(x float64, terms int) float64 {
	return float64(terms+1) * (x*0x1p-52 + 0x1p-1074)
}

// checkPath validates a returned path from u to v: it starts at u and ends
// at v, consecutive vertices are joined by the listed edges, it is simple,
// and it avoids every forbidden vertex and edge. It returns the path's
// weight summed from u, the order the engines sum in.
func checkPath(t *testing.T, engine string, g *graph.Graph, path, edges []int, u, v int, opts Options) float64 {
	t.Helper()
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		t.Fatalf("%s: path %v does not run %d -> %d", engine, path, u, v)
	}
	if len(edges) != len(path)-1 {
		t.Fatalf("%s: %d edges for %d path vertices", engine, len(edges), len(path))
	}
	seen := make(map[int]bool, len(path))
	weight := 0.0
	for i, x := range path {
		if seen[x] {
			t.Fatalf("%s: path %v is not simple (repeats %d)", engine, path, x)
		}
		seen[x] = true
		if opts.ForbiddenVertices.Contains(x) {
			t.Fatalf("%s: path %v crosses forbidden vertex %d", engine, path, x)
		}
		if i == 0 {
			continue
		}
		e := g.Edge(edges[i-1])
		if e.Other(path[i-1]) != x {
			t.Fatalf("%s: edge %d does not join %d and %d", engine, e.ID, path[i-1], x)
		}
		if opts.ForbiddenEdges.Contains(e.ID) {
			t.Fatalf("%s: path %v uses forbidden edge %d", engine, path, e.ID)
		}
		weight += e.Weight
	}
	return weight
}

// checkReachAgainstReference runs Run, RunTarget, RunReach and RunReachBidi
// (with and without ReachOnly) on one query and holds each to BellmanFord.
// The unidirectional engines sum every path from the source, as the
// reference does, so they must match it bit for bit in every class. The
// bidirectional engine sums the two halves separately; in classes with
// rounded sums it may only disagree with the reference when the bound lies
// within rounding slack of the true distance.
func checkReachAgainstReference(t *testing.T, g *graph.Graph, u, v int, opts Options, exact bool) {
	t.Helper()
	n := g.NumVertices()
	ref := BellmanFord(g, u, opts)
	want := !math.IsInf(ref[v], 1)
	free := opts
	free.Bound = 0
	shortest := BellmanFord(g, u, free)[v]
	bound := opts.Bound
	if bound <= 0 {
		bound = math.Inf(1)
	}
	s := NewSolver(n)

	if err := s.Run(g, u, opts); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < n; x++ {
		if got := s.Dist(x); got != ref[x] && !(math.IsInf(got, 1) && math.IsInf(ref[x], 1)) {
			t.Fatalf("Run: dist(%d->%d) = %v, BellmanFord %v (bound %v)", u, x, got, ref[x], opts.Bound)
		}
	}

	if err := s.RunTarget(g, u, v, opts); err != nil {
		t.Fatal(err)
	}
	if s.Reached(v) != want || (want && s.Dist(v) != ref[v]) {
		t.Fatalf("RunTarget(%d,%d): reached=%v dist=%v, BellmanFord %v (bound %v)",
			u, v, s.Reached(v), s.Dist(v), ref[v], opts.Bound)
	}
	if want {
		if w := checkPath(t, "RunTarget", g, s.PathTo(g, v), s.PathEdgesTo(g, v), u, v, opts); w != ref[v] {
			t.Fatalf("RunTarget(%d,%d): path weighs %v, dist %v", u, v, w, ref[v])
		}
	}

	if err := s.RunReach(g, u, v, opts); err != nil {
		t.Fatal(err)
	}
	if s.Reached(v) != want {
		t.Fatalf("RunReach(%d,%d): reached=%v, BellmanFord %v (bound %v)", u, v, s.Reached(v), ref[v], opts.Bound)
	}
	if want {
		w := checkPath(t, "RunReach", g, s.PathTo(g, v), s.PathEdgesTo(g, v), u, v, opts)
		if w != s.Dist(v) || w > bound || w < ref[v] {
			t.Fatalf("RunReach(%d,%d): path weighs %v, Dist %v, bound %v, shortest %v", u, v, w, s.Dist(v), bound, ref[v])
		}
	}

	if err := s.RunReachBidi(g, u, v, opts); err != nil {
		t.Fatal(err)
	}
	got := s.Reached(v)
	if got != want {
		// Only a near tie may split the verdicts, and only when the two
		// summation orders can round differently.
		if exact || math.Abs(shortest-bound) > roundingSlack(bound, n) {
			t.Fatalf("RunReachBidi(%d,%d): reached=%v, BellmanFord %v (shortest %v, bound %v)", u, v, got, want, shortest, opts.Bound)
		}
	}
	if got {
		w := checkPath(t, "RunReachBidi", g, s.PathTo(g, v), s.PathEdgesTo(g, v), u, v, opts)
		if w != s.Dist(v) || w < shortest {
			t.Fatalf("RunReachBidi(%d,%d): Dist %v, path weighs %v, shortest %v", u, v, s.Dist(v), w, shortest)
		}
		if exact && w > bound || w > bound+roundingSlack(bound, n) {
			t.Fatalf("RunReachBidi(%d,%d): path weighs %v over bound %v", u, v, w, bound)
		}
	}
	reachOnly := opts
	reachOnly.ReachOnly = true
	if err := s.RunReachBidi(g, u, v, reachOnly); err != nil {
		t.Fatal(err)
	}
	if s.Reached(v) != got {
		t.Fatalf("RunReachBidi(%d,%d): ReachOnly reached=%v, full run %v", u, v, s.Reached(v), got)
	}
}

// referenceQuery derives one query from rng: endpoints, optional
// forbidden-vertex and forbidden-edge masks, and a bound chosen by boundSel
// among unbounded, exactly the shortest masked distance (a bound equal to
// an exact path weight), the float just below it, and a random multiple of
// a drawn weight.
func referenceQuery(rng *rand.Rand, g *graph.Graph, c weightClass, maskV, maskE bool, boundSel int) (u, v int, opts Options) {
	n := g.NumVertices()
	u, v = rng.Intn(n), rng.Intn(n)
	if u == v {
		v = (u + 1) % n
	}
	if maskV {
		opts.ForbiddenVertices = bitset.New(n)
		for i := rng.Intn(n/2 + 1); i > 0; i-- {
			if x := rng.Intn(n); x != u {
				opts.ForbiddenVertices.Add(x) // the target may be forbidden
			}
		}
	}
	if maskE {
		opts.ForbiddenEdges = bitset.New(g.NumEdges())
		for i := rng.Intn(g.NumEdges()/2 + 1); i > 0; i-- {
			opts.ForbiddenEdges.Add(rng.Intn(g.NumEdges()))
		}
	}
	d := BellmanFord(g, u, opts)[v]
	switch boundSel % 4 {
	case 0:
		opts.Bound = 0
	case 1:
		opts.Bound = d
	case 2:
		opts.Bound = math.Nextafter(d, 0)
	default:
		opts.Bound = c.draw(rng) * float64(1+rng.Intn(8))
	}
	if math.IsInf(opts.Bound, 1) {
		opts.Bound = 0 // target unreachable under the masks: search unbounded
	}
	return u, v, opts
}

// TestReachMatchesReferenceAcrossWeightClasses is the queue's differential
// check: every search engine against BellmanFord on unit, tied, wide-range,
// subnormal, absorbing and smooth weights, with exact-tie bounds and both
// mask kinds.
func TestReachMatchesReferenceAcrossWeightClasses(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for c := weightClass(0); c < numWeightClasses; c++ {
		t.Run(weightClassNames[c], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for trial := 0; trial < trials; trial++ {
				n := 2 + rng.Intn(24)
				g := classGraph(rng, n, rng.Intn(4*n), c)
				u, v, opts := referenceQuery(rng, g, c, rng.Intn(2) == 0, rng.Intn(2) == 0, trial)
				checkReachAgainstReference(t, g, u, v, opts, c.exact())
			}
		})
	}
}

// FuzzReachReference drives checkReachAgainstReference from fuzzed
// parameters: the weight class, graph shape, masks and bound selector.
// Seed corpus lives in testdata/fuzz/FuzzReachReference; `go test` replays
// it on every run, and `go test -fuzz=FuzzReachReference ./internal/sssp`
// explores further.
func FuzzReachReference(f *testing.F) {
	for c := uint8(0); c < uint8(numWeightClasses); c++ {
		f.Add(int64(c)+1, c, uint64(12), uint64(30), uint8(1), true, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, class uint8, nRaw, extraRaw uint64, boundSel uint8, maskV, maskE bool) {
		c := weightClass(class % uint8(numWeightClasses))
		n := int(2 + nRaw%24)
		rng := rand.New(rand.NewSource(seed))
		g := classGraph(rng, n, int(extraRaw%80), c)
		u, v, opts := referenceQuery(rng, g, c, maskV, maskE, int(boundSel))
		checkReachAgainstReference(t, g, u, v, opts, c.exact())
	})
}

// TestWarmReachAllocatesNothing pins the queue's bucket reuse: once a solver
// has served a query, repeating it (and its bidirectional twin) allocates
// nothing, so lazy-deletion buckets cannot grow on every call.
func TestWarmReachAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := weightClass(0); c < numWeightClasses; c++ {
		g := classGraph(rng, 60, 400, c)
		fv := bitset.New(60)
		fv.Add(7)
		opts := Options{ForbiddenVertices: fv}
		s := NewSolver(60)
		run := func() {
			if err := s.RunReach(g, 0, 59, opts); err != nil {
				t.Fatal(err)
			}
			if err := s.RunReachBidi(g, 0, 59, opts); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if a := testing.AllocsPerRun(50, run); a != 0 {
			t.Fatalf("%s weights: warmed RunReach + RunReachBidi allocate %v times per call", weightClassNames[c], a)
		}
	}
}
