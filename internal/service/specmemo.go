package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sync/atomic"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// specMemoEntries bounds a specMemo: at under 1 KiB an entry the bound
// costs under 1 MiB.
const specMemoEntries = 1024

// submission is a job body resolved to what routing and submission need
// from it: the normalized spec with its inline graph text cleared, the
// result cache key, and the input graph's size.
type submission struct {
	spec            JobSpec
	key             CacheKey
	vertices, edges int
}

// decodeStrict decodes one JSON value from body, refusing unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeSpec is the one path from a job body to its input graph: JSON
// decode (unknown fields refused), normalize, materialize. The returned
// spec's Graph text is cleared; the graph carries it.
func decodeSpec(body []byte) (JobSpec, *graph.Graph, error) {
	var spec JobSpec
	if err := decodeStrict(body, &spec); err != nil {
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

// Resolution is a job body resolved through a server's spec memo: the body
// bytes, their submission, and the input graph when the lookup missed and
// materialized it (nil after a hit; the disk tier and a build decode the
// body again). A fleet node resolves each body it routes once (Resolve) and
// hands the Resolution to its own service when it owns the digest
// (SubmitResolved), so the body is neither hashed nor decoded twice.
type Resolution struct {
	body []byte
	sub  submission
	g    *graph.Graph
}

// Digest is the graph digest the body routes on: SpecDigest's answer.
func (r Resolution) Digest() string { return r.sub.key.Digest }

// resolveSpec resolves a job body without a memo: decodeSpec, then the
// cache key, whose digest hashes the graph's canonical text.
func resolveSpec(body []byte) (Resolution, error) {
	spec, g, err := decodeSpec(body)
	if err != nil {
		return Resolution{}, err
	}
	return Resolution{body: body, g: g, sub: submission{spec: spec, key: cacheKeyFor(spec, g),
		vertices: g.NumVertices(), edges: g.NumEdges()}}, nil
}

// specMemo maps the SHA-256 of a job body to its resolved submission, so a
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
type specMemo struct {
	lru          *lruCache[[sha256.Size]byte, submission]
	hits, misses atomic.Int64
}

func newSpecMemo() *specMemo {
	return &specMemo{lru: newLRU[[sha256.Size]byte, submission](specMemoEntries)}
}

// resolve returns body's resolution, with the materialized graph on a miss
// only.
func (m *specMemo) resolve(body []byte) (Resolution, error) {
	sum := sha256.Sum256(body)
	if sub, ok := m.lru.Get(sum); ok {
		m.hits.Add(1)
		return Resolution{body: body, sub: sub}, nil
	}
	m.misses.Add(1)
	res, err := resolveSpec(body)
	if err != nil {
		return Resolution{}, err
	}
	m.lru.Put(sum, res.sub)
	return res, nil
}

// counts returns the memo's lookups so far that found the body and that
// did not.
func (m *specMemo) counts() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Resolve resolves a job body through the server's spec memo. The error is
// the body's decode, normalize or materialize failure, which POST /v1/jobs
// answers with 400.
func (s *Server) Resolve(body []byte) (Resolution, error) { return s.memo.resolve(body) }
