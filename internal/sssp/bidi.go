package sssp

import (
	"fmt"
	"math"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// bidi holds the Solver's backward-search state, allocated on first use of
// RunReachBidi so forward-only callers pay nothing. The forward half of a
// bidirectional run lives in the Solver's regular arrays, which is what lets
// Reached/AppendPathTo/AppendPathEdgesTo work unchanged after a successful
// bidirectional run (the winning path is spliced into the forward parent
// chain).
type bidi struct {
	queue   radixQueue
	dist    []float64
	parent  []int
	settled []bool
	touched []int
}

func (s *Solver) ensureBidi() {
	n := len(s.dist)
	if s.b == nil {
		s.b = &bidi{
			dist:    make([]float64, n),
			parent:  make([]int, n),
			settled: make([]bool, n),
			touched: make([]int, 0, n),
		}
		for i := range s.b.dist {
			s.b.dist[i] = math.Inf(1)
			s.b.parent[i] = -1
		}
		return
	}
	if n <= len(s.b.dist) {
		return
	}
	old := len(s.b.dist)
	dist := make([]float64, n)
	parent := make([]int, n)
	settled := make([]bool, n)
	for i := old; i < n; i++ {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	copy(dist, s.b.dist)
	copy(parent, s.b.parent)
	copy(settled, s.b.settled)
	s.b.dist, s.b.parent, s.b.settled = dist, parent, settled
}

func (b *bidi) reset() {
	for _, v := range b.touched {
		b.dist[v] = math.Inf(1)
		b.parent[v] = -1
		b.settled[v] = false
	}
	b.touched = b.touched[:0]
	b.queue.reset()
}

// RunReachBidi answers the same bounded reachability question as RunReach —
// "is there a src-target path of weight <= opts.Bound?" — by meeting in the
// middle: two Dijkstra frontiers grow from src and target simultaneously
// (both honoring the forbidden masks), and the search succeeds as soon as
// the frontiers certify a combined path within the bound. Each frontier
// explores a ball of roughly half the bound's radius, so on graphs where
// ball volume grows quickly with radius this examines far fewer vertices
// than RunReach's single bound-radius ball — precisely the fault oracle's
// workload, where every query is such a bounded reachability test.
//
// The contract is narrower than RunReach's: after RunReachBidi only the
// TARGET's results are meaningful. Reached(target) is exact; when true,
// AppendPathTo/AppendPathEdgesTo/PathTo/PathEdgesTo for target return a
// valid simple path of weight <= opts.Bound (not necessarily shortest), and
// Dist(target) is that path's weight. Every other vertex's state is
// unspecified. A forbidden target is reported unreached, matching RunReach.
//
// The failure cut is exact: with mu the best certified meeting value, the
// search stops only when mu <= bound (success) or when the two frontiers'
// next keys sum beyond the bound (every undiscovered path must cross both
// frontiers, so its weight exceeds topF+topB > bound) or a frontier
// exhausts its half of the ball.
func (s *Solver) RunReachBidi(g *graph.Graph, src, target int, opts Options) error {
	n := g.NumVertices()
	if n > len(s.dist) {
		return fmt.Errorf("sssp: graph has %d vertices, solver capacity is %d", n, len(s.dist))
	}
	if src < 0 || src >= n {
		return fmt.Errorf("sssp: source %d out of range [0,%d)", src, n)
	}
	if target < 0 || target >= n {
		return fmt.Errorf("sssp: target %d out of range [0,%d)", target, n)
	}
	if opts.ForbiddenVertices.Contains(src) {
		return fmt.Errorf("sssp: source %d is forbidden", src)
	}
	s.reset()
	s.ensureBidi()
	b := s.b
	b.reset()

	if opts.ForbiddenVertices.Contains(target) {
		return nil // unreached: no path may end in a forbidden vertex
	}
	distF, parentF, settledF := s.dist, s.parentEdge, s.settled
	distF[src] = 0
	s.touched = append(s.touched, src)
	if src == target {
		settledF[src] = true
		return nil
	}
	distB, parentB, settledB := b.dist, b.parent, b.settled
	distB[target] = 0
	b.touched = append(b.touched, target)
	s.queue.push(src, 0)
	b.queue.push(target, 0)

	fvw := opts.ForbiddenVertices.Words()
	few := opts.ForbiddenEdges.Words()
	bound := opts.Bound
	if bound <= 0 {
		bound = math.Inf(1)
	}

	// mu is the weight of the best meeting path certified so far and meet
	// its meeting vertex. Candidates are checked whenever a vertex that is
	// finite on one side is settled or improved on the other, so mu always
	// reflects the current dist values of every doubly-discovered vertex —
	// the invariant behind both the failure cut and the spliced path's
	// simplicity (see the overlap argument at splice below).
	mu := math.Inf(1)
	meet := -1

	for meet < 0 || mu > bound {
		// Each frontier's next key is its first live queue entry (+Inf
		// once its half of the ball is exhausted).
		topF, topB := s.queue.minLive(distF), b.queue.minLive(distB)
		if math.IsInf(topF, 1) && math.IsInf(topB, 1) {
			return nil // both balls exhausted: unreached within bound
		}
		if topF+topB > bound {
			// Any path not yet certified must leave both settled regions,
			// costing at least topF on the src side and topB on the target
			// side — over the bound. (An empty side contributes +Inf, which
			// is correct: that side's entire <=bound ball is settled, so an
			// uncertified path cannot exist at all.)
			return nil
		}
		if topF <= topB {
			// Expand forward.
			u, d, _ := s.queue.popLive(distF)
			settledF[u] = true
			if !math.IsInf(distB[u], 1) {
				if c := d + distB[u]; c < mu {
					mu, meet = c, u
				}
			}
			arcs := g.Neighbors(u)
			for i := range arcs {
				arc := &arcs[i]
				v := arc.To
				if settledF[v] {
					continue
				}
				if fvw != nil && fvw[uint(v)>>6]&(1<<(uint(v)&63)) != 0 {
					continue
				}
				if few != nil && few[uint(arc.ID)>>6]&(1<<(uint(arc.ID)&63)) != 0 {
					continue
				}
				nd := d + arc.Weight
				if nd > bound || nd >= distF[v] {
					continue
				}
				if math.IsInf(distF[v], 1) {
					s.touched = append(s.touched, v)
				}
				distF[v] = nd
				parentF[v] = arc.ID
				if !math.IsInf(distB[v], 1) {
					if c := nd + distB[v]; c < mu {
						mu, meet = c, v
					}
				}
				s.queue.push(v, nd)
			}
		} else {
			// Expand backward (the graph is undirected, so the same arcs
			// serve both directions).
			u, d, _ := b.queue.popLive(distB)
			settledB[u] = true
			if !math.IsInf(distF[u], 1) {
				if c := d + distF[u]; c < mu {
					mu, meet = c, u
				}
			}
			arcs := g.Neighbors(u)
			for i := range arcs {
				arc := &arcs[i]
				v := arc.To
				if settledB[v] {
					continue
				}
				if fvw != nil && fvw[uint(v)>>6]&(1<<(uint(v)&63)) != 0 {
					continue
				}
				if few != nil && few[uint(arc.ID)>>6]&(1<<(uint(arc.ID)&63)) != 0 {
					continue
				}
				nd := d + arc.Weight
				if nd > bound || nd >= distB[v] {
					continue
				}
				if math.IsInf(distB[v], 1) {
					b.touched = append(b.touched, v)
				}
				distB[v] = nd
				parentB[v] = arc.ID
				if !math.IsInf(distF[v], 1) {
					if c := nd + distF[v]; c < mu {
						mu, meet = c, v
					}
				}
				b.queue.push(v, nd)
			}
		}
	}

	if opts.ReachOnly {
		// The caller wants only the boolean: mark the target reached with a
		// certified-path upper bound and skip the splice walk entirely. The
		// parent chain for target is left incomplete, which is exactly what
		// Options.ReachOnly documents.
		if math.IsInf(distF[target], 1) {
			s.touched = append(s.touched, target)
			distF[target] = mu
		}
		settledF[target] = true
		return nil
	}

	// Success: splice the backward half onto the forward parent chain so the
	// regular extractors see one src->target path. The two halves cannot
	// share a vertex besides the meeting point: a shared vertex w would have
	// had distF[w]+distB[w] checked as a candidate with its final values (the
	// last improvement to either side re-checks), and chain arithmetic with
	// strictly positive weights would force mu > distF[w]+distB[w] >= mu — a
	// contradiction. Hence the walk below never revisits forward-chain
	// vertices and the result is a simple path of weight mu <= bound.
	cur := meet
	for {
		eid := parentB[cur]
		if eid < 0 {
			break
		}
		e := g.Edge(eid)
		nxt := e.Other(cur)
		if math.IsInf(distF[nxt], 1) {
			s.touched = append(s.touched, nxt)
		}
		distF[nxt] = distF[cur] + e.Weight
		parentF[nxt] = eid
		cur = nxt
	}
	// cur is now the target (the backward chain's root).
	settledF[cur] = true
	return nil
}
