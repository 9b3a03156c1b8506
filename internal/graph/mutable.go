package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// ErrNoLiveEdge is returned by Mutable.Delete when no live edge joins the
// given endpoints (it may have been deleted already, or never inserted).
var ErrNoLiveEdge = errors.New("graph: no live edge between endpoints")

// Mutable is a long-lived editable graph for session workloads: edges are
// inserted through the CSR arena's amortized append and deleted by
// tombstoning, so both operations are cheap and underlying edge IDs stay
// stable between compactions. The incremental spanner engine keys its
// decision state by those IDs.
//
// Invariants:
//
//   - Underlying edge IDs 0..NumEdges()-1 are assigned in insertion order
//     and never reused until Compact.
//   - The endpoint index tracks live edges only: deleting (u,v) frees the
//     pair for re-insertion (under a fresh ID).
//   - The live edges, enumerated in ID order, are exactly the session's
//     current graph; Materialize densifies them into a plain Graph whose
//     edge IDs are the live edges' insertion ranks.
//   - Every underlying edge's canonical line ("e u v w\n", as Encode writes
//     it) is formatted once, when the edge enters, into an append-only
//     arena. The edge list, the arena and its offsets only ever grow
//     between compactions, and Compact builds fresh ones, so a Frozen view
//     that shares their prefix never sees them change.
//
// Mutable is not safe for concurrent use.
type Mutable struct {
	g     *Graph
	dead  []bool // by underlying edge ID; true = tombstoned
	deadN int
	// lines is the line arena: edge id's line ends at ends[id] and starts
	// where edge id-1's ends (at 0 for id 0).
	lines []byte
	ends  []int
}

// NewMutable returns an empty mutable graph on n isolated vertices.
func NewMutable(n int) *Mutable {
	return &Mutable{g: New(n)}
}

// NewMutableFrom returns a mutable graph seeded with a deep copy of g; every
// edge of g is live under its original ID.
func NewMutableFrom(g *Graph) *Mutable {
	m := &Mutable{g: g.Clone(), dead: make([]bool, g.NumEdges()), ends: make([]int, 0, g.NumEdges())}
	for _, e := range g.edges {
		m.appendLine(e)
	}
	return m
}

// appendLine formats e's canonical line into the arena; e must be the
// underlying edge with the next ID.
func (m *Mutable) appendLine(e Edge) {
	m.lines = appendEdgeLine(m.lines, e.U, e.V, e.Weight)
	m.ends = append(m.ends, len(m.lines))
}

// NumVertices returns the vertex count.
func (m *Mutable) NumVertices() int { return m.g.NumVertices() }

// NumEdges returns the underlying edge count, tombstones included. It is the
// exclusive upper bound on underlying edge IDs.
func (m *Mutable) NumEdges() int { return m.g.NumEdges() }

// NumLiveEdges returns the number of live (non-tombstoned) edges.
func (m *Mutable) NumLiveEdges() int { return m.g.NumEdges() - m.deadN }

// AddVertex appends a new isolated vertex and returns its ID.
func (m *Mutable) AddVertex() int { return m.g.AddVertex() }

// Live reports whether underlying edge id is live. IDs out of range are not
// live.
func (m *Mutable) Live(id int) bool {
	return id >= 0 && id < len(m.dead) && !m.dead[id]
}

// Edge returns the underlying edge with the given ID, live or tombstoned.
func (m *Mutable) Edge(id int) Edge { return m.g.Edge(id) }

// Insert adds the live edge (u, v) with weight w and returns its underlying
// ID. The same validation as Graph.AddEdge applies; a pair whose previous
// edge was deleted may be re-inserted (the new edge gets a fresh ID).
func (m *Mutable) Insert(u, v int, w float64) (int, error) {
	id, err := m.g.AddEdge(u, v, w)
	if err != nil {
		return 0, err
	}
	m.dead = append(m.dead, false)
	m.appendLine(m.g.edges[id])
	return id, nil
}

// Delete tombstones the live edge joining u and v and returns it. The
// endpoint pair becomes free for re-insertion immediately; the tombstoned
// arcs are reclaimed by the next Compact.
func (m *Mutable) Delete(u, v int) (Edge, error) {
	e, ok := m.g.EdgeBetween(u, v)
	if !ok {
		return Edge{}, fmt.Errorf("%w: (%d,%d)", ErrNoLiveEdge, u, v)
	}
	m.dead[e.ID] = true
	m.deadN++
	delete(m.g.index, normPair(e.U, e.V))
	return e, nil
}

// LiveBetween returns the live edge joining u and v, if any. Out-of-range
// endpoints answer false.
func (m *Mutable) LiveBetween(u, v int) (Edge, bool) {
	return m.g.EdgeBetween(u, v)
}

// LiveEdges returns the live edges in insertion (underlying-ID) order.
func (m *Mutable) LiveEdges() []Edge {
	out := make([]Edge, 0, m.NumLiveEdges())
	for _, e := range m.g.edges {
		if !m.dead[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// LiveIncident returns v's live incident edges in adjacency order.
func (m *Mutable) LiveIncident(v int) []Edge {
	var out []Edge
	for _, a := range m.g.Neighbors(v) {
		if !m.dead[a.ID] {
			out = append(out, m.g.Edge(a.ID))
		}
	}
	return out
}

// Waste returns the tombstoned fraction of the underlying edge list — the
// signal for when a Compact pays off.
func (m *Mutable) Waste() float64 {
	if m.g.NumEdges() == 0 {
		return 0
	}
	return float64(m.deadN) / float64(m.g.NumEdges())
}

// Materialize densifies the live edges into a fresh plain Graph, adding them
// in insertion order so materialized edge ID i is the i-th live edge. It
// also returns ids, the materialized-ID -> underlying-ID mapping. The
// returned graph is independent of the Mutable.
//
// Because relative insertion order among surviving edges is stable under
// deletes, the materialized graph's (weight, edge ID) scan order is the
// session's canonical greedy scan order: a from-scratch rebuild of the
// materialized graph makes decisions in exactly the order the incremental
// engine maintains them in.
func (m *Mutable) Materialize() (*Graph, []int) {
	v := m.view()
	return v.Materialize()
}

// Freeze returns an immutable view of the current live graph. It shares the
// append-only edge list and line arena and copies only the tombstone bits,
// so later inserts, deletes and compactions of m leave the view unchanged.
func (m *Mutable) Freeze() *Frozen {
	f := m.view()
	f.dead = append([]bool(nil), m.dead...)
	return &f
}

// view is a Frozen over m's current state that shares m's tombstone bits: it
// is valid only until m's next mutation.
func (m *Mutable) view() Frozen {
	return Frozen{n: m.g.NumVertices(), edges: m.g.edges, dead: m.dead, live: m.NumLiveEdges(),
		lines: m.lines, ends: m.ends}
}

// Compact rewrites the underlying graph without tombstoned edges, renumbering
// the survivors densely in insertion order, and returns remap, the old
// underlying-ID -> new underlying-ID mapping (-1 for tombstoned IDs).
// Callers keying state by underlying IDs must remap it. The line arena is
// rebuilt by copying the survivors' lines into a fresh one.
func (m *Mutable) Compact() []int {
	remap := make([]int, m.g.NumEdges())
	fresh := New(m.g.NumVertices())
	old := m.view()
	lines := make([]byte, 0, len(m.lines))
	ends := make([]int, 0, m.NumLiveEdges())
	for _, e := range m.g.edges {
		if m.dead[e.ID] {
			remap[e.ID] = -1
			continue
		}
		remap[e.ID] = fresh.MustAddEdge(e.U, e.V, e.Weight)
		lines = append(lines, old.span(e.ID, e.ID+1)...)
		ends = append(ends, len(lines))
	}
	m.g, m.lines, m.ends = fresh, lines, ends
	m.dead = make([]bool, fresh.NumEdges())
	m.deadN = 0
	return remap
}

// Frozen is an immutable view of a Mutable's live graph at one instant,
// from Mutable.Freeze. It is safe for concurrent use.
type Frozen struct {
	n     int
	edges []Edge // underlying edges, shared with the Mutable
	dead  []bool
	live  int
	lines []byte
	ends  []int
}

// NumEdges returns the underlying edge count, tombstones included.
func (f *Frozen) NumEdges() int { return len(f.edges) }

// span returns the lines of underlying edges from..to-1, back to back.
func (f *Frozen) span(from, to int) []byte {
	start := 0
	if from > 0 {
		start = f.ends[from-1]
	}
	return f.lines[start:f.ends[to-1]]
}

// Digest returns Materialize().Digest() without materializing: it hashes the
// header and then the cached lines of the live edges, one run per stretch
// between tombstones. No float is formatted and nothing is laid out.
func (f *Frozen) Digest() string {
	h := sha256.New()
	var hdr [2*20 + 4]byte
	h.Write(appendHeader(hdr[:0], f.n, f.live))
	run := 0 // first ID of the current run of live edges
	for id := 0; id <= len(f.edges); id++ {
		if id < len(f.edges) && !f.dead[id] {
			continue
		}
		if run < id {
			h.Write(f.span(run, id))
		}
		run = id + 1
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AppendSubgraph appends the Encode form of the graph on f's vertices whose
// edges are the given underlying edges, in the given order: the header, then
// each edge's cached line.
func (f *Frozen) AppendSubgraph(buf []byte, edges []Edge) []byte {
	buf = appendHeader(buf, f.n, len(edges))
	for _, e := range edges {
		buf = append(buf, f.span(e.ID, e.ID+1)...)
	}
	return buf
}

// Materialize densifies the live edges into a fresh plain Graph, as
// Mutable.Materialize does for the Mutable at the instant of the view.
//
// The output is laid out in one pass: the edge list and endpoint index are
// presized to the live count, and every vertex's CSR block gets its exact
// final size, so nothing relocates or rehashes.
func (f *Frozen) Materialize() (*Graph, []int) {
	out := &Graph{
		edges: make([]Edge, 0, f.live),
		seg:   make([]segment, f.n),
		index: make(map[[2]int]int, f.live),
	}
	ids := make([]int, 0, f.live)
	for _, e := range f.edges {
		if !f.dead[e.ID] {
			_ = out.pushEdge(e.U, e.V, e.Weight) // live pairs are distinct
			ids = append(ids, e.ID)
		}
	}
	out.layOut()
	return out, ids
}
