// Package sssp provides single-source and single-pair shortest paths on the
// repository's graph type, with the features the fault-tolerant machinery
// needs: forbidden-vertex and forbidden-edge masks (so callers never
// materialize G \ F), distance bounds with early exit, and a reusable Solver
// that performs no per-query allocation.
//
// Every search runs on one monotone radix queue (queue.go) keyed on the
// IEEE-754 bits of the non-negative distances, with lazy deletion instead of
// decrease-key: Dijkstra never inserts below the last extracted key, so no
// comparison heap is needed, and on unit weights the queue reduces to BFS
// layers. Ties settle in the queue's order, so which of several equally
// short paths a search returns is an implementation detail; every caller's
// contract is stated in terms of path weight, never of which path.
package sssp

import (
	"fmt"
	"math"
	"sync"

	"github.com/ftspanner/ftspanner/internal/bitset"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// Options configures a shortest-path run. The zero value means: no forbidden
// elements and no distance bound.
type Options struct {
	// ForbiddenVertices are treated as deleted. The source must not be
	// forbidden. nil means none.
	ForbiddenVertices *bitset.Set
	// ForbiddenEdges are treated as deleted. nil means none.
	ForbiddenEdges *bitset.Set
	// Bound, if positive, stops the search once every remaining vertex is
	// known to be farther than Bound; vertices at distance > Bound are
	// reported unreached. Zero or negative means unbounded.
	Bound float64
	// ReachOnly (honored by RunReachBidi) declares that the caller needs
	// only the boolean reachability answer: on success the backward half is
	// not spliced into the forward parent chain, so Reached(target) is
	// exact but the path extractors are NOT valid for target. Witness
	// revalidation is the intended user — it re-checks a known fault set
	// with one bounded search and never extracts the detour, so it skips
	// the splice walk (and its touched-list growth) on every hit.
	// RunReach ignores the flag: the unidirectional search's parent chain
	// is complete the moment the target is contacted, so there is nothing
	// to skip.
	ReachOnly bool
}

// Solver runs Dijkstra repeatedly over graphs with at most Cap vertices,
// reusing all internal state between runs. It is not safe for concurrent
// use; create one Solver per goroutine.
type Solver struct {
	queue      radixQueue
	dist       []float64
	parentEdge []int
	settled    []bool
	touched    []int

	// b is the backward-search state of RunReachBidi, allocated lazily so
	// forward-only solvers stay at half the footprint.
	b *bidi
}

// NewSolver returns a Solver for graphs with up to n vertices.
func NewSolver(n int) *Solver {
	s := &Solver{
		dist:       make([]float64, n),
		parentEdge: make([]int, n),
		settled:    make([]bool, n),
		touched:    make([]int, 0, n),
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.parentEdge[i] = -1
	}
	return s
}

// Cap returns the maximum vertex count this solver supports.
func (s *Solver) Cap() int { return len(s.dist) }

// Ensure grows the solver to cover graphs with up to n vertices, preserving
// nothing from the last run. A no-op when the solver is already big enough.
func (s *Solver) Ensure(n int) {
	if n <= len(s.dist) {
		return
	}
	old := len(s.dist)
	dist := make([]float64, n)
	parentEdge := make([]int, n)
	settled := make([]bool, n)
	for i := old; i < n; i++ {
		dist[i] = math.Inf(1)
		parentEdge[i] = -1
	}
	// Old slots keep their reset invariants (touched-based reset restored
	// them after the last run), so a plain copy preserves them.
	copy(dist, s.dist)
	copy(parentEdge, s.parentEdge)
	copy(settled, s.settled)
	s.dist, s.parentEdge, s.settled = dist, parentEdge, settled
	if s.b != nil {
		s.ensureBidi()
	}
}

// Run computes shortest paths from src to every reachable vertex of g under
// opts. Results are valid until the next Run/RunTarget/RunReach.
func (s *Solver) Run(g *graph.Graph, src int, opts Options) error {
	return s.run(g, src, -1, false, opts)
}

// RunTarget is Run with an early exit: the search stops as soon as target is
// settled, so other vertices may be reported unreached.
func (s *Solver) RunTarget(g *graph.Graph, src, target int, opts Options) error {
	if target < 0 || target >= g.NumVertices() {
		return fmt.Errorf("sssp: target %d out of range [0,%d)", target, g.NumVertices())
	}
	return s.run(g, src, target, false, opts)
}

// RunReach answers the bounded reachability question "is there a src-target
// path of weight <= opts.Bound?" as cheaply as possible: the search stops
// the moment ANY such path reaches the target, without waiting for the
// target to be settled at its exact shortest distance. After RunReach,
// Reached(target) is exact, and PathTo/PathEdgesTo return a valid path of
// weight <= opts.Bound — but Dist(target) and the path are upper bounds, not
// necessarily shortest. Every other vertex behaves as after RunTarget.
//
// This is the fault oracle's workhorse: its queries only need bounded
// reachability plus one within-bound path to branch on, and the target
// typically sits near the search frontier's edge — settling it exactly
// means exploring nearly the whole bound-radius ball first.
func (s *Solver) RunReach(g *graph.Graph, src, target int, opts Options) error {
	if target < 0 || target >= g.NumVertices() {
		return fmt.Errorf("sssp: target %d out of range [0,%d)", target, g.NumVertices())
	}
	return s.run(g, src, target, true, opts)
}

func (s *Solver) run(g *graph.Graph, src, target int, reach bool, opts Options) error {
	n := g.NumVertices()
	if n > len(s.dist) {
		return fmt.Errorf("sssp: graph has %d vertices, solver capacity is %d", n, len(s.dist))
	}
	if src < 0 || src >= n {
		return fmt.Errorf("sssp: source %d out of range [0,%d)", src, n)
	}
	if opts.ForbiddenVertices.Contains(src) {
		return fmt.Errorf("sssp: source %d is forbidden", src)
	}
	s.reset()

	// The forbidden masks are tested with direct word indexing rather than
	// bitset.Set.Contains: the relax loop is the hottest code in the
	// repository (every oracle query is a handful of these searches), and
	// fusing the word-level test removes a call, a nil check, and a bounds
	// check per arc.
	fvw := opts.ForbiddenVertices.Words()
	few := opts.ForbiddenEdges.Words()

	// An absent bound becomes +Inf so the loop tests plain float compares
	// instead of a flag plus a compare.
	bound := opts.Bound
	if bound <= 0 {
		bound = math.Inf(1)
	}
	dist, settled, parentEdge := s.dist, s.settled, s.parentEdge
	dist[src] = 0
	s.touched = append(s.touched, src)
	s.queue.push(src, 0)

	for {
		u, d, ok := s.queue.popLive(dist)
		if !ok {
			break
		}
		settled[u] = true
		if u == target {
			break
		}
		arcs := g.Neighbors(u)
		for i := range arcs {
			arc := &arcs[i]
			v := arc.To
			if settled[v] {
				continue
			}
			if fvw != nil && fvw[uint(v)>>6]&(1<<(uint(v)&63)) != 0 {
				continue
			}
			if few != nil && few[uint(arc.ID)>>6]&(1<<(uint(arc.ID)&63)) != 0 {
				continue
			}
			nd := d + arc.Weight
			if nd > bound {
				continue
			}
			if nd < dist[v] {
				if math.IsInf(dist[v], 1) {
					s.touched = append(s.touched, v)
				}
				dist[v] = nd
				parentEdge[v] = arc.ID
				if reach && v == target {
					// A within-bound path to the target exists; that is all
					// a RunReach caller asked. Marking the target settled
					// makes Reached true and the parent chain (ending at
					// the settled vertex u) a valid <=bound path.
					settled[v] = true
					return nil
				}
				s.queue.push(v, nd)
			}
		}
	}
	return nil
}

// Reached reports whether v was settled in the last run.
func (s *Solver) Reached(v int) bool { return s.settled[v] }

// Dist returns the shortest-path distance to v from the last run's source,
// or +Inf if v was not settled.
func (s *Solver) Dist(v int) float64 {
	if !s.settled[v] {
		return math.Inf(1)
	}
	return s.dist[v]
}

// PathTo returns the vertices of a shortest path from the last run's source
// to v (inclusive on both ends), or nil if v was not settled.
func (s *Solver) PathTo(g *graph.Graph, v int) []int {
	if !s.settled[v] {
		return nil
	}
	return s.AppendPathTo(g, v, nil)
}

// AppendPathTo appends the vertices of a shortest path to v (both endpoints
// inclusive, in path order) to dst and returns the extended slice. When v
// was not settled, dst is returned unchanged — callers that need to
// distinguish "unreached" from "source path" check Reached first. This is
// the zero-allocation variant of PathTo for hot loops that own a reusable
// buffer.
func (s *Solver) AppendPathTo(g *graph.Graph, v int, dst []int) []int {
	if !s.settled[v] {
		return dst
	}
	base := len(dst)
	for {
		dst = append(dst, v)
		eid := s.parentEdge[v]
		if eid < 0 {
			break
		}
		v = g.Edge(eid).Other(v)
	}
	reverse(dst[base:])
	return dst
}

// PathEdgesTo returns the edge IDs of a shortest path to v in path order, or
// nil if v was not settled. A settled source yields an empty (nil) path.
func (s *Solver) PathEdgesTo(g *graph.Graph, v int) []int {
	if !s.settled[v] {
		return nil
	}
	if s.parentEdge[v] < 0 {
		return nil
	}
	return s.AppendPathEdgesTo(g, v, nil)
}

// AppendPathEdgesTo appends the edge IDs of a shortest path to v (in path
// order) to dst and returns the extended slice; the zero-allocation variant
// of PathEdgesTo. When v was not settled, dst is returned unchanged.
func (s *Solver) AppendPathEdgesTo(g *graph.Graph, v int, dst []int) []int {
	if !s.settled[v] {
		return dst
	}
	base := len(dst)
	for {
		eid := s.parentEdge[v]
		if eid < 0 {
			break
		}
		dst = append(dst, eid)
		v = g.Edge(eid).Other(v)
	}
	reverse(dst[base:])
	return dst
}

func (s *Solver) reset() {
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
		s.parentEdge[v] = -1
		s.settled[v] = false
	}
	s.touched = s.touched[:0]
	s.queue.reset()
}

func reverse(a []int) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// solverPool recycles Solvers for the convenience wrappers below. The
// wrappers used to construct a fresh Solver (four slices and a priority
// queue) per call, which made them quadratic-ish in hot loops — e.g. a
// verifier calling AllDists once per source. Pooled solvers grow monotonically via
// Ensure, so a pool hit for a smaller graph reuses the bigger allocation.
var solverPool = sync.Pool{New: func() any { return NewSolver(0) }}

// BorrowSolver returns a pooled Solver sized for at least n vertices.
// Callers that cannot keep a long-lived Solver of their own (one-shot
// helpers, per-request handlers) should pair it with ReturnSolver; hot loops
// are still better served by an explicitly reused Solver.
func BorrowSolver(n int) *Solver {
	s := solverPool.Get().(*Solver)
	s.Ensure(n)
	return s
}

// ReturnSolver puts a borrowed Solver back into the pool. The solver's last
// results become invalid immediately.
func ReturnSolver(s *Solver) { solverPool.Put(s) }

// Dist is a convenience wrapper returning the shortest-path distance between
// u and v (with early exit at v), or +Inf if unreachable under opts.
func Dist(g *graph.Graph, u, v int, opts Options) float64 {
	s := BorrowSolver(g.NumVertices())
	defer ReturnSolver(s)
	if err := s.RunTarget(g, u, v, opts); err != nil {
		return math.Inf(1)
	}
	return s.Dist(v)
}

// Path is a convenience wrapper returning a shortest u-v path as vertex and
// edge sequences. ok is false if v is unreachable under opts.
func Path(g *graph.Graph, u, v int, opts Options) (vertices, edges []int, ok bool) {
	s := BorrowSolver(g.NumVertices())
	defer ReturnSolver(s)
	if err := s.RunTarget(g, u, v, opts); err != nil {
		return nil, nil, false
	}
	if !s.Reached(v) {
		return nil, nil, false
	}
	return s.PathTo(g, v), s.PathEdgesTo(g, v), true
}

// AllDists returns the distance from src to every vertex (+Inf where
// unreachable) under opts.
func AllDists(g *graph.Graph, src int, opts Options) ([]float64, error) {
	s := BorrowSolver(g.NumVertices())
	defer ReturnSolver(s)
	if err := s.Run(g, src, opts); err != nil {
		return nil, err
	}
	out := make([]float64, g.NumVertices())
	for v := range out {
		out[v] = s.Dist(v)
	}
	return out, nil
}
