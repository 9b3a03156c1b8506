// Package verify checks fault-tolerant spanner properties (Definition 2 of
// the paper): for an instance (G, H ⊆ G) and a fault set F, is H \ F a
// k-spanner of G \ F? It offers exact per-fault-set checks, exhaustive
// enumeration over all small fault sets, randomized sampling, and a greedy
// adversarial search for larger instances — the domain's failure injection.
//
// All checks use the per-edge certificate: H\F is a k-spanner of G\F iff
// every surviving edge (u,v) of G\F satisfies dist_{H\F}(u,v) <= k·w(u,v),
// because shortest paths decompose into edges. The lemma itself is
// unit-tested against the all-pairs definition.
package verify

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ftspanner/ftspanner/internal/bitset"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/sssp"
)

// Instance couples an input graph G with a candidate spanner H on the same
// vertex set. HEdgeToG maps each H edge ID to the G edge ID it copies, which
// is how edge fault sets (given as G edge IDs) are applied to H.
type Instance struct {
	G        *graph.Graph
	H        *graph.Graph
	HEdgeToG []int
}

// NewInstance validates and builds an Instance.
func NewInstance(g, h *graph.Graph, hEdgeToG []int) (*Instance, error) {
	if g == nil || h == nil {
		return nil, fmt.Errorf("verify: nil graph")
	}
	if g.NumVertices() != h.NumVertices() {
		return nil, fmt.Errorf("verify: vertex counts differ: G has %d, H has %d", g.NumVertices(), h.NumVertices())
	}
	if len(hEdgeToG) != h.NumEdges() {
		return nil, fmt.Errorf("verify: mapping covers %d of %d H edges", len(hEdgeToG), h.NumEdges())
	}
	for hid, gid := range hEdgeToG {
		if gid < 0 || gid >= g.NumEdges() {
			return nil, fmt.Errorf("verify: H edge %d maps to invalid G edge %d", hid, gid)
		}
		he, ge := h.Edge(hid), g.Edge(gid)
		hu, hv := he.Endpoints()
		gu, gv := ge.Endpoints()
		if hu != gu || hv != gv || he.Weight != ge.Weight {
			return nil, fmt.Errorf("verify: H edge %d (%d,%d,w=%v) does not match G edge %d (%d,%d,w=%v)",
				hid, hu, hv, he.Weight, gid, gu, gv, ge.Weight)
		}
	}
	return &Instance{G: g, H: h, HEdgeToG: hEdgeToG}, nil
}

// Violation describes a broken spanner guarantee: under fault set F the
// surviving G edge (U,V) has dist_{H\F}(U,V) = Dist > Stretch·Weight.
type Violation struct {
	F       []int
	U, V    int
	Weight  float64
	Dist    float64
	Stretch float64
}

// Error renders the violation; Violation is also usable as a plain value.
func (v *Violation) Error() string {
	return fmt.Sprintf("verify: fault set %v: edge (%d,%d) w=%v has detour %v > stretch %v",
		v.F, v.U, v.V, v.Weight, v.Dist, v.Stretch)
}

// maskScratch holds the reusable fault-mask bitsets behind masks, so
// enumeration loops (exhaustive, random, adversarial, parallel workers)
// allocate them once rather than per fault set. Contents are valid until
// the next masks call on the same scratch.
type maskScratch struct {
	fv *bitset.Set // faulted vertices (Vertices mode)
	fg *bitset.Set // faulted G edges (Edges mode)
	fh *bitset.Set // same faults as H edge IDs (Edges mode)
}

func (inst *Instance) newMaskScratch() *maskScratch {
	return &maskScratch{
		fv: bitset.New(inst.G.NumVertices()),
		fg: bitset.New(inst.G.NumEdges()),
		fh: bitset.New(inst.H.NumEdges()),
	}
}

// masks translates a fault set in the given mode into Dijkstra masks for H
// and a survivor predicate for G edges, loading them into sc.
func (inst *Instance) masks(sc *maskScratch, mode fault.Mode, faults []int) (hOpts sssp.Options, gEdgeSurvives func(graph.Edge) bool, err error) {
	switch mode {
	case fault.Vertices:
		sc.fv.Clear()
		for _, x := range faults {
			if x < 0 || x >= inst.G.NumVertices() {
				return sssp.Options{}, nil, fmt.Errorf("verify: fault vertex %d out of range", x)
			}
			sc.fv.Add(x)
		}
		return sssp.Options{ForbiddenVertices: sc.fv},
			func(e graph.Edge) bool { return !sc.fv.Contains(e.U) && !sc.fv.Contains(e.V) },
			nil
	case fault.Edges:
		sc.fg.Clear()
		sc.fh.Clear()
		for _, x := range faults {
			if x < 0 || x >= inst.G.NumEdges() {
				return sssp.Options{}, nil, fmt.Errorf("verify: fault edge %d out of range", x)
			}
			sc.fg.Add(x)
		}
		for hid, gid := range inst.HEdgeToG {
			if sc.fg.Contains(gid) {
				sc.fh.Add(hid)
			}
		}
		return sssp.Options{ForbiddenEdges: sc.fh},
			func(e graph.Edge) bool { return !sc.fg.Contains(e.ID) },
			nil
	default:
		return sssp.Options{}, nil, fmt.Errorf("verify: invalid mode %d", int(mode))
	}
}

// CheckFaultSet verifies that H\F is a stretch-spanner of G\F for one
// specific fault set. It returns nil if the property holds, a *Violation if
// it fails, or another error for invalid input.
func (inst *Instance) CheckFaultSet(stretch float64, mode fault.Mode, faults []int) error {
	solver := sssp.BorrowSolver(inst.G.NumVertices())
	defer sssp.ReturnSolver(solver)
	return inst.checkFaultSet(solver, inst.newMaskScratch(), stretch, mode, faults)
}

// checkFaultSet is CheckFaultSet on a caller-owned solver and mask scratch,
// so enumeration loops (exhaustive, random, adversarial) reuse one set of
// allocations across thousands of fault sets instead of building a fresh
// heap and fresh bitsets per set.
func (inst *Instance) checkFaultSet(solver *sssp.Solver, sc *maskScratch, stretch float64, mode fault.Mode, faults []int) error {
	if stretch < 1 {
		return fmt.Errorf("verify: stretch must be >= 1, got %v", stretch)
	}
	hOpts, survives, err := inst.masks(sc, mode, faults)
	if err != nil {
		return err
	}
	for _, e := range inst.G.Edges() {
		if !survives(e) {
			continue
		}
		opts := hOpts
		opts.Bound = stretch * e.Weight
		if err := solver.RunTarget(inst.H, e.U, e.V, opts); err != nil {
			return err
		}
		if !solver.Reached(e.V) {
			// Compute the exact detour (or +Inf) for the report.
			unbounded := hOpts
			if err := solver.RunTarget(inst.H, e.U, e.V, unbounded); err != nil {
				return err
			}
			return &Violation{
				F:       append([]int(nil), faults...),
				U:       e.U,
				V:       e.V,
				Weight:  e.Weight,
				Dist:    solver.Dist(e.V),
				Stretch: stretch,
			}
		}
	}
	return nil
}

// WorstEdgeStretch returns the maximum over surviving G edges (u,v) of
// dist_{H\F}(u,v)/w(u,v) (+Inf if some surviving edge is disconnected in
// H\F), which by the certificate lemma is the exact stretch of H\F for G\F.
// A graph with no surviving edges has stretch 1 by convention.
func (inst *Instance) WorstEdgeStretch(mode fault.Mode, faults []int) (float64, error) {
	hOpts, survives, err := inst.masks(inst.newMaskScratch(), mode, faults)
	if err != nil {
		return 0, err
	}
	solver := sssp.BorrowSolver(inst.G.NumVertices())
	defer sssp.ReturnSolver(solver)
	worst := 1.0
	for u := 0; u < inst.G.NumVertices(); u++ {
		if mode == fault.Vertices && hOpts.ForbiddenVertices.Contains(u) {
			continue
		}
		ran := false
		for _, arc := range inst.G.Neighbors(u) {
			if arc.To < u {
				continue // each edge once
			}
			e := inst.G.Edge(arc.ID)
			if !survives(e) {
				continue
			}
			if !ran {
				if err := solver.Run(inst.H, u, hOpts); err != nil {
					return 0, err
				}
				ran = true
			}
			d := solver.Dist(arc.To)
			if math.IsInf(d, 1) {
				return math.Inf(1), nil
			}
			if s := d / e.Weight; s > worst {
				worst = s
			}
		}
	}
	return worst, nil
}

// ExhaustiveCheck verifies the spanner property under every fault set of
// size at most f. The universe is all vertices (Vertices mode) or all G
// edges (Edges mode); feasible only for small instances — C(universe, f)
// grows fast. It returns nil, or the first *Violation found.
func (inst *Instance) ExhaustiveCheck(stretch float64, mode fault.Mode, f int) error {
	universe := inst.universe(mode)
	solver := sssp.BorrowSolver(inst.G.NumVertices())
	defer sssp.ReturnSolver(solver)
	sc := inst.newMaskScratch()
	var firstErr error
	for size := 0; size <= f && firstErr == nil; size++ {
		combinations(universe, size, func(faults []int) bool {
			if err := inst.checkFaultSet(solver, sc, stretch, mode, faults); err != nil {
				firstErr = err
				return false
			}
			return true
		})
	}
	return firstErr
}

// RandomCheck verifies the spanner property under `trials` uniformly random
// fault sets with sizes drawn uniformly from [0, f].
func (inst *Instance) RandomCheck(stretch float64, mode fault.Mode, f, trials int, rng *rand.Rand) error {
	solver := sssp.BorrowSolver(inst.G.NumVertices())
	defer sssp.ReturnSolver(solver)
	sc := inst.newMaskScratch()
	draw := inst.newFaultSampler(mode, f, rng)
	for t := 0; t < trials; t++ {
		if err := inst.checkFaultSet(solver, sc, stretch, mode, draw.next()); err != nil {
			return err
		}
	}
	return nil
}

// universe is the number of elements a fault set draws from: vertices, or G
// edges in Edges mode.
func (inst *Instance) universe(mode fault.Mode) int {
	if mode == fault.Edges {
		return inst.G.NumEdges()
	}
	return inst.G.NumVertices()
}

// faultSampler draws the random checks' fault sets: a size uniform in
// [0, f] (capped at the universe), then a uniform subset of that size by
// Floyd's algorithm, in O(size) memory and RNG draws however large the
// universe is.
type faultSampler struct {
	rng         *rand.Rand
	universe, f int
	seen        map[int]struct{}
}

func (inst *Instance) newFaultSampler(mode fault.Mode, f int, rng *rand.Rand) *faultSampler {
	return &faultSampler{rng: rng, universe: inst.universe(mode), f: f, seen: make(map[int]struct{})}
}

// next draws one fault set.
func (s *faultSampler) next() []int {
	size := min(s.rng.Intn(s.f+1), s.universe)
	clear(s.seen)
	set := make([]int, 0, size)
	for j := s.universe - size; j < s.universe; j++ {
		// Every earlier pick is below j, so j itself is always free.
		t := s.rng.Intn(j + 1)
		if _, dup := s.seen[t]; dup {
			t = j
		}
		s.seen[t] = struct{}{}
		set = append(set, t)
	}
	return set
}

// AdversarialCheck tries to break the spanner with a greedy adversary: for
// random surviving target edges it repeatedly adds the single fault that
// maximizes the detour, then checks the full property under the resulting
// fault set. Much better than random sampling at finding weak cuts.
func (inst *Instance) AdversarialCheck(stretch float64, mode fault.Mode, f, trials int, rng *rand.Rand) error {
	if inst.G.NumEdges() == 0 {
		return nil
	}
	solver := sssp.BorrowSolver(inst.G.NumVertices())
	defer sssp.ReturnSolver(solver)
	sc := inst.newMaskScratch()
	for t := 0; t < trials; t++ {
		target := inst.G.Edge(rng.Intn(inst.G.NumEdges()))
		faults := inst.greedyAdversary(solver, target, mode, f)
		if err := inst.checkFaultSet(solver, sc, stretch, mode, faults); err != nil {
			return err
		}
	}
	return nil
}

// greedyAdversary picks up to f faults that successively maximize
// dist_{H\F}(u,v) for the target edge (u,v), following shortest paths.
func (inst *Instance) greedyAdversary(solver *sssp.Solver, target graph.Edge, mode fault.Mode, f int) []int {
	var (
		faults []int
		fv     = bitset.New(inst.H.NumVertices())
		fh     = bitset.New(inst.H.NumEdges())
	)
	hToG := inst.HEdgeToG
	for len(faults) < f {
		opts := sssp.Options{ForbiddenVertices: fv, ForbiddenEdges: fh}
		if err := solver.RunTarget(inst.H, target.U, target.V, opts); err != nil {
			break
		}
		if !solver.Reached(target.V) {
			break // already disconnected: the fault set is as strong as it gets
		}
		if mode == fault.Vertices {
			verts := solver.PathTo(inst.H, target.V)
			if len(verts) <= 2 {
				break // direct edge cannot be vertex-faulted
			}
			best, bestDist := -1, -1.0
			for _, x := range verts[1 : len(verts)-1] {
				fv.Add(x)
				if err := solver.RunTarget(inst.H, target.U, target.V, opts); err == nil {
					d := solver.Dist(target.V)
					if math.IsInf(d, 1) {
						d = math.MaxFloat64
					}
					if d > bestDist {
						best, bestDist = x, d
					}
				}
				fv.Remove(x)
			}
			if best < 0 {
				break
			}
			fv.Add(best)
			faults = append(faults, best)
		} else {
			edges := solver.PathEdgesTo(inst.H, target.V)
			if len(edges) == 0 {
				break
			}
			best, bestDist := -1, -1.0
			for _, hid := range edges {
				fh.Add(hid)
				if err := solver.RunTarget(inst.H, target.U, target.V, opts); err == nil {
					d := solver.Dist(target.V)
					if math.IsInf(d, 1) {
						d = math.MaxFloat64
					}
					if d > bestDist {
						best, bestDist = hid, d
					}
				}
				fh.Remove(hid)
			}
			if best < 0 {
				break
			}
			fh.Add(best)
			faults = append(faults, hToG[best])
		}
	}
	return faults
}

// combinations visits every size-k subset of [0,n) in lexicographic order,
// passing a reused slice; visit returns false to stop early.
func combinations(n, k int, visit func([]int) bool) {
	if k > n || k < 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !visit(idx) {
			return
		}
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
