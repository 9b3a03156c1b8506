// Package graph implements the weighted undirected simple graph that every
// other package in this repository builds on.
//
// Vertices are dense integers 0..NumVertices()-1 and edges carry stable
// integer IDs 0..NumEdges()-1 assigned in insertion order. Stable edge IDs
// matter: fault sets, blocking-set pairs and spanner membership all refer to
// edges by ID, including across the subgraph operations in ops.go (which
// report ID mappings).
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is an undirected weighted edge. U < V is not guaranteed; use
// Endpoints for a normalized pair.
type Edge struct {
	ID     int
	U, V   int
	Weight float64
}

// Endpoints returns the edge's endpoints with the smaller vertex first.
func (e Edge) Endpoints() (int, int) {
	if e.U <= e.V {
		return e.U, e.V
	}
	return e.V, e.U
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint, which always indicates a bug in the caller.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d=(%d,%d)", x, e.ID, e.U, e.V))
}

// Arc is one direction of an edge as stored in adjacency lists.
type Arc struct {
	To     int     // head vertex
	ID     int     // edge ID
	Weight float64 // edge weight (duplicated from the edge for cache locality)
}

// segment locates one vertex's arc block inside the shared CSR arena: the
// arcs of vertex v live at arcs[off : off+deg], with room to grow in place
// up to arcs[off+cap].
type segment struct {
	off, deg, cap int
}

// Graph is a weighted undirected simple graph. The zero value is an empty
// graph with no vertices; most callers use New.
//
// Adjacency is stored in compressed-sparse-row form: a single flat arc
// arena with one contiguous block per vertex. Unlike classic CSR, blocks
// carry slack capacity and are relocated to the arena's end (with doubling)
// when they fill, so edge insertion stays amortized O(1) and the growing
// spanner H built by the greedy remains CSR-backed throughout. Abandoned
// blocks are reclaimed by compaction once they exceed half the arena.
//
// Graph is not safe for concurrent mutation; concurrent reads are fine.
type Graph struct {
	edges []Edge
	arcs  []Arc          // CSR arena: per-vertex contiguous arc blocks
	seg   []segment      // per-vertex block descriptors; len(seg) == NumVertices()
	dead  int            // arena slots abandoned by block relocations
	index map[[2]int]int // normalized endpoint pair -> edge ID
}

// Errors returned by mutating operations.
var (
	ErrSelfLoop       = errors.New("graph: self-loops are not allowed")
	ErrParallelEdge   = errors.New("graph: parallel edges are not allowed")
	ErrVertexRange    = errors.New("graph: vertex out of range")
	ErrNonPositiveWgt = errors.New("graph: edge weight must be positive and finite")
)

// New returns an empty graph on n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		seg:   make([]segment, n),
		index: make(map[[2]int]int),
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.seg) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex appends a new isolated vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.seg = append(g.seg, segment{})
	return len(g.seg) - 1
}

// AddEdge inserts the undirected edge (u, v) with weight w and returns its
// ID. Self-loops, parallel edges, out-of-range endpoints and non-positive or
// non-finite weights are rejected.
func (g *Graph) AddEdge(u, v int, w float64) (int, error) {
	if err := g.checkEdge(u, v, w); err != nil {
		return 0, err
	}
	key := normPair(u, v)
	if _, dup := g.index[key]; dup {
		return 0, parallelEdge(u, v)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, Weight: w})
	g.addArc(u, Arc{To: v, ID: id, Weight: w})
	g.addArc(v, Arc{To: u, ID: id, Weight: w})
	g.index[key] = id
	return id, nil
}

// checkEdge applies AddEdge's rules, in AddEdge's order, up to the
// parallel-edge check: endpoints in range, no self-loop, a positive finite
// weight.
func (g *Graph) checkEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.seg) || v < 0 || v >= len(g.seg) {
		return fmt.Errorf("%w: (%d,%d) with %d vertices", ErrVertexRange, u, v, len(g.seg))
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrNonPositiveWgt, w)
	}
	return nil
}

func parallelEdge(u, v int) error { return fmt.Errorf("%w: (%d,%d)", ErrParallelEdge, u, v) }

// pushEdge is the first half of building a graph in bulk: it appends an edge
// that passed checkEdge to the edge list and the endpoint index, and counts
// it into both endpoints' block capacities, leaving the arcs to layOut. The
// parallel-edge check rides on the index insert, one hash operation per
// edge: a pair already present fails with ErrParallelEdge, after which the
// index is wrong and the graph must be discarded.
func (g *Graph) pushEdge(u, v int, w float64) error {
	id, n := len(g.edges), len(g.index)
	g.index[normPair(u, v)] = id
	if len(g.index) == n {
		return parallelEdge(u, v)
	}
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, Weight: w})
	g.seg[u].cap++
	g.seg[v].cap++
	return nil
}

// layOut is the second half: with every edge pushed, it sizes each vertex's
// CSR block to its exact degree and fills the blocks in edge-ID order — the
// within-block order AddEdge produces and Truncate relies on — in one
// arena allocation.
func (g *Graph) layOut() {
	off := 0
	for v := range g.seg {
		g.seg[v].off = off
		off += g.seg[v].cap
	}
	g.arcs = make([]Arc, off)
	for _, e := range g.edges {
		su, sv := &g.seg[e.U], &g.seg[e.V]
		g.arcs[su.off+su.deg] = Arc{To: e.V, ID: e.ID, Weight: e.Weight}
		g.arcs[sv.off+sv.deg] = Arc{To: e.U, ID: e.ID, Weight: e.Weight}
		su.deg++
		sv.deg++
	}
}

// addArc appends one directed arc to v's CSR block, relocating the block to
// the arena's end with doubled capacity when full, and compacting the arena
// when relocation waste exceeds half of it.
func (g *Graph) addArc(v int, a Arc) {
	s := &g.seg[v]
	if s.deg == s.cap {
		newCap := s.cap * 2
		if newCap == 0 {
			newCap = 2
		}
		off := len(g.arcs)
		g.arcs = slices.Grow(g.arcs, newCap)[:off+newCap]
		copy(g.arcs[off:], g.arcs[s.off:s.off+s.deg])
		g.dead += s.cap
		s.off, s.cap = off, newCap
	}
	g.arcs[s.off+s.deg] = a
	s.deg++
	if g.dead > len(g.arcs)/2 && len(g.arcs) > 64 {
		g.Compact()
	}
}

// Compact rewrites the arc arena without the holes left behind by block
// relocations, preserving each vertex's slack capacity. It runs
// automatically when holes exceed half the arena; callers that finished
// building a graph may invoke it explicitly to tighten memory before a
// read-heavy phase.
func (g *Graph) Compact() {
	total := 0
	for i := range g.seg {
		total += g.seg[i].cap
	}
	out := make([]Arc, 0, total)
	for i := range g.seg {
		s := &g.seg[i]
		off := len(out)
		out = append(out, g.arcs[s.off:s.off+s.deg]...)
		out = out[:off+s.cap]
		s.off = off
	}
	g.arcs = out
	g.dead = 0
}

// Truncate rewinds the graph to its first n edges, undoing every AddEdge
// past that watermark: the later edges leave the edge list, their arcs are
// popped off the tails of their endpoints' CSR blocks, and their endpoint
// pairs become free for re-insertion. Vertices are never removed.
//
// This is what makes the CSR arena checkpointable for append-heavy callers:
// an edge count recorded earlier IS a checkpoint, because arcs are only ever
// appended to block tails in edge-ID order (relocation and compaction both
// preserve within-block order), so rewinding pops exactly the arcs added
// since. Cost is O(edges removed). The incremental spanner engine uses this
// to rewind its kept-prefix graph to a batch's divergence point instead of
// rebuilding it edge by edge.
func (g *Graph) Truncate(n int) {
	if n < 0 || n > len(g.edges) {
		panic(fmt.Sprintf("graph: Truncate(%d) with %d edges", n, len(g.edges)))
	}
	for id := len(g.edges) - 1; id >= n; id-- {
		e := g.edges[id]
		g.popArc(e.U, id)
		g.popArc(e.V, id)
		delete(g.index, normPair(e.U, e.V))
	}
	g.edges = g.edges[:n]
}

// popArc removes the tail arc of v's CSR block, which must carry the given
// edge ID — the block-order invariant Truncate relies on.
func (g *Graph) popArc(v, id int) {
	s := &g.seg[v]
	if s.deg == 0 || g.arcs[s.off+s.deg-1].ID != id {
		panic(fmt.Sprintf("graph: Truncate: vertex %d block tail is not edge %d", v, id))
	}
	s.deg--
}

// MustAddEdge is AddEdge for construction code where the inputs are known
// valid (generators, tests). It panics on error.
func (g *Graph) MustAddEdge(u, v int, w float64) int {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge list, ordered by ID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgesByWeight returns the edge list sorted by increasing weight, breaking
// ties by edge ID so the order is deterministic. This is the processing
// order of every greedy algorithm in the repository.
func (g *Graph) EdgesByWeight() []Edge {
	out := g.Edges()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight < out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Neighbors returns the adjacency list of v: a contiguous view into the CSR
// arc arena. The returned slice is owned by the graph and must not be
// modified; it is valid until the next mutation (which may relocate blocks).
func (g *Graph) Neighbors(v int) []Arc {
	s := g.seg[v]
	return g.arcs[s.off : s.off+s.deg : s.off+s.deg]
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return g.seg[v].deg }

// HasEdge reports whether an edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeBetween(u, v)
	return ok
}

// EdgeBetween returns the edge joining u and v, if any.
func (g *Graph) EdgeBetween(u, v int) (Edge, bool) {
	if u < 0 || u >= len(g.seg) || v < 0 || v >= len(g.seg) || u == v {
		return Edge{}, false
	}
	id, ok := g.index[normPair(u, v)]
	if !ok {
		return Edge{}, false
	}
	return g.edges[id], true
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, e := range g.edges {
		sum += e.Weight
	}
	return sum
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := range g.seg {
		if g.seg[v].deg > d {
			d = g.seg[v].deg
		}
	}
	return d
}

// Clone returns a deep copy of the graph. The copy's arc arena is compacted:
// relocation holes in the original are not carried over.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges: make([]Edge, len(g.edges)),
		arcs:  make([]Arc, 0, 2*len(g.edges)),
		seg:   make([]segment, len(g.seg)),
		index: make(map[[2]int]int, len(g.edges)),
	}
	copy(c.edges, g.edges)
	for v := range g.seg {
		s := g.seg[v]
		off := len(c.arcs)
		c.arcs = append(c.arcs, g.arcs[s.off:s.off+s.deg]...)
		c.seg[v] = segment{off: off, deg: s.deg, cap: s.deg}
	}
	for _, e := range c.edges {
		c.index[normPair(e.U, e.V)] = e.ID
	}
	return c
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

func normPair(u, v int) [2]int {
	if u <= v {
		return [2]int{u, v}
	}
	return [2]int{v, u}
}
