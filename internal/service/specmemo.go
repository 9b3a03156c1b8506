package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sync/atomic"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// specMemoEntries bounds a SpecMemo. A fleet node routes and owns the same
// body bytes, so one entry serves both hops; at under 1 KiB an entry the
// bound costs under 1 MiB.
const specMemoEntries = 1024

// submission is a job body resolved to what routing and submission need
// from it: the normalized spec with its inline graph text cleared, the
// result cache key, and the input graph's size.
type submission struct {
	spec            JobSpec
	key             CacheKey
	vertices, edges int
}

// decodeSpec is the one path from a job body to its input graph: JSON
// decode (unknown fields refused), normalize, materialize. The returned
// spec's Graph text is cleared; the graph carries it.
func decodeSpec(body []byte) (JobSpec, *graph.Graph, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, nil, err
	}
	if err := normalizeSpec(&spec); err != nil {
		return JobSpec{}, nil, err
	}
	g, err := materialize(&spec)
	if err != nil {
		return JobSpec{}, nil, err
	}
	spec.Graph = ""
	return spec, g, nil
}

// resolveSpec resolves a job body without a memo: decodeSpec, then the
// cache key, whose digest hashes the graph's canonical text.
func resolveSpec(body []byte) (submission, *graph.Graph, error) {
	spec, g, err := decodeSpec(body)
	if err != nil {
		return submission{}, nil, err
	}
	return submission{spec: spec, key: cacheKeyFor(spec, g),
		vertices: g.NumVertices(), edges: g.NumEdges()}, g, nil
}

// SpecMemo maps the SHA-256 of a job body to its resolved submission, so a
// body seen before costs one hash instead of a decode, a parse and a
// digest. Resolution is a pure function of the body bytes, which is what
// makes the memo exact; a body that fails to resolve is never memoized, so
// it fails the same way on every try.
//
// The memo keeps at most specMemoEntries entries, least recently used out
// first. An entry holds no graph text: the key hash, the spec's short
// fields, the cache key with its 64-byte hex digest, two counts and the LRU
// links, under 1 KiB in all, so a full memo stays under 1 MiB whatever the
// bodies' size. Safe for concurrent use.
type SpecMemo struct {
	lru          *lruCache[[sha256.Size]byte, submission]
	hits, misses atomic.Int64
}

// NewSpecMemo returns an empty memo.
func NewSpecMemo() *SpecMemo {
	return &SpecMemo{lru: newLRU[[sha256.Size]byte, submission](specMemoEntries)}
}

// resolve returns body's submission. On a miss it also returns the
// materialized graph; on a hit the graph is nil, and a caller that needs it
// decodes body again with decodeSpec.
func (m *SpecMemo) resolve(body []byte) (submission, *graph.Graph, error) {
	sum := sha256.Sum256(body)
	if sub, ok := m.lru.Get(sum); ok {
		m.hits.Add(1)
		return sub, nil, nil
	}
	m.misses.Add(1)
	sub, g, err := resolveSpec(body)
	if err != nil {
		return submission{}, nil, err
	}
	m.lru.Put(sum, sub)
	return sub, g, nil
}

// Digest is SpecDigest through the memo: the graph digest a job body
// routes on, with the same errors.
func (m *SpecMemo) Digest(body []byte) (string, error) {
	sub, _, err := m.resolve(body)
	return sub.key.Digest, err
}

// Counts returns the memo's lookups so far that found the body and that
// did not.
func (m *SpecMemo) Counts() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}
