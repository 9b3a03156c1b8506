package service

import (
	"fmt"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/store"
)

// storeKeyFor renders a cache key as the durable store's canonical key
// string. The leading "v1" scopes the key space, so a future key-shape
// change misses cleanly instead of aliasing old records.
func storeKeyFor(key CacheKey) string {
	return fmt.Sprintf("v1|%s|%g|%d|%s|%s|%d",
		key.Digest, key.Stretch, key.Faults, key.Mode, key.Algorithm, key.Seed)
}

// recordFor flattens a completed build into its persisted form: kept-edge
// IDs and stats only — the spanner is reconstructed from the input graph on
// read, and its digest is stored so the reconstruction is verifiable.
func recordFor(key CacheKey, res *buildResult) *store.Record {
	st := res.stats
	return &store.Record{
		Key:           storeKeyFor(key),
		NumVertices:   res.Input().NumVertices(),
		InputEdges:    res.Input().NumEdges(),
		SpannerDigest: res.Spanner().Digest(),
		Kept:          res.Kept(),
		Stats: store.Stats{
			EdgesScanned:  int64(st.EdgesScanned),
			OracleCalls:   st.OracleCalls,
			Dijkstras:     st.Dijkstras,
			SpecBatches:   st.SpecBatches,
			SpecQueries:   st.SpecQueries,
			SpecHits:      st.SpecHits,
			SpecWaste:     st.SpecWaste,
			SpecRounds:    st.SpecRounds,
			SpecRequeries: st.SpecRequeries,
			DurationNS:    int64(st.Duration),
		},
	}
}

// resultFromRecord rebuilds a full buildResult from a stored record and the
// freshly materialized input graph: kept edges are re-added in stored order
// (spanner edge IDs are assigned in keep order, so the reconstruction is
// exact), and the spanner digest must match the one recorded at build time
// byte for byte. Any inconsistency is an error — the caller quarantines the
// record and rebuilds.
func resultFromRecord(g *graph.Graph, rec *store.Record) (*buildResult, error) {
	if rec.NumVertices != g.NumVertices() || rec.InputEdges != g.NumEdges() {
		return nil, fmt.Errorf("record is for a %dv/%de graph, input has %dv/%de",
			rec.NumVertices, rec.InputEdges, g.NumVertices(), g.NumEdges())
	}
	sp := graph.New(g.NumVertices())
	for _, id := range rec.Kept {
		if id < 0 || id >= g.NumEdges() {
			return nil, fmt.Errorf("kept edge ID %d out of range", id)
		}
		e := g.Edge(id)
		if _, err := sp.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, fmt.Errorf("kept edge %d: %w", id, err)
		}
	}
	if d := sp.Digest(); d != rec.SpannerDigest {
		return nil, fmt.Errorf("reconstructed spanner digest %s != stored %s", d, rec.SpannerDigest)
	}
	st := rec.Stats
	return &buildResult{
		input:   g,
		spanner: sp,
		kept:    append([]int(nil), rec.Kept...),
		stats: core.Stats{
			EdgesScanned:  int(st.EdgesScanned),
			OracleCalls:   st.OracleCalls,
			Dijkstras:     st.Dijkstras,
			SpecBatches:   st.SpecBatches,
			SpecQueries:   st.SpecQueries,
			SpecHits:      st.SpecHits,
			SpecWaste:     st.SpecWaste,
			SpecRounds:    st.SpecRounds,
			SpecRequeries: st.SpecRequeries,
			Duration:      time.Duration(st.DurationNS),
		},
	}, nil
}

// storeGet consults the disk tier for key's result, quarantining records
// that decode but fail the cross-checks against the input graph. It returns
// nil on any miss. Called without Server.mu held — it does disk I/O.
func (s *Server) storeGet(key CacheKey, g *graph.Graph) *buildResult {
	if s.store == nil {
		return nil
	}
	sk := storeKeyFor(key)
	rec, ok := s.store.Get(sk)
	if !ok {
		return nil
	}
	res, err := resultFromRecord(g, rec)
	if err != nil {
		s.store.Quarantine(sk)
		return nil
	}
	return res
}

// storePut persists a completed build to the disk tier; write failures are
// counted by the store and otherwise ignored — durability is best-effort,
// the in-memory result is already committed.
func (s *Server) storePut(key CacheKey, res *buildResult) {
	if s.store == nil {
		return
	}
	_ = s.store.Put(recordFor(key, res))
}
