// Peer-facing surface for the replica fleet (internal/cluster): a cheap
// health/queue summary the router polls for backpressure and drain-aware
// routing, and raw record export for pull-based anti-entropy. These
// endpoints carry no job semantics of their own — they expose state the
// server already tracks, in a shape a peer can act on without parsing the
// full /metrics document.
package service

import (
	"net/http"

	"github.com/ftspanner/ftspanner/internal/store"
)

// ClusterSummary answers GET /v1/cluster/summary. It is the router's view
// of one replica: whether it accepts work right now, how loaded it is, and
// how long a rejected client should wait.
type ClusterSummary struct {
	// Accepting is false while the replica is draining or its job queue is
	// full — the router hedges to the ring successor instead of
	// forwarding.
	Accepting bool `json:"accepting"`
	Draining  bool `json:"draining"`
	QueueLen  int  `json:"queue_len"`
	QueueCap  int  `json:"queue_cap"`
	// RetryAfterSec is the backoff hint a router should relay on 429/503
	// when this replica is the owner and cannot take the job.
	RetryAfterSec int `json:"retry_after_sec"`
	// Store is "disabled", "ok", or "degraded" (breaker open, memory-only).
	Store string `json:"store"`
	// Records is the durable store's entry count, so an anti-entropy sweep
	// can skip peers with nothing to offer.
	Records int    `json:"records"`
	Version string `json:"version,omitempty"`
}

// ClusterSummary reports the replica's load as a fleet router sees it.
func (s *Server) ClusterSummary() ClusterSummary {
	sum := ClusterSummary{
		Draining: s.draining.Load(),
		QueueCap: s.cfg.QueueDepth,
		Store:    "disabled",
		Version:  s.cfg.Version,
	}
	s.mu.Lock()
	sum.QueueLen = len(s.queue)
	if sum.Draining {
		sum.RetryAfterSec = s.drainRetryAfterLocked()
	} else {
		sum.RetryAfterSec = s.queueRetryAfterLocked()
	}
	s.mu.Unlock()
	sum.Accepting = !sum.Draining && sum.QueueLen < sum.QueueCap
	if s.store != nil {
		sum.Store = "ok"
		if s.store.Degraded() {
			sum.Store = "degraded"
		}
		sum.Records = len(s.store.List())
	}
	return sum
}

func (s *Server) handleClusterSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterSummary())
}

// clusterRecordsResponse answers GET /v1/cluster/records.
type clusterRecordsResponse struct {
	Records []store.RecordInfo `json:"records"`
}

// handleClusterRecords lists the durable store's record files so a peer's
// anti-entropy sweep can diff its own set against ours. A store-less
// replica answers an empty list, not an error: "nothing to pull" is a
// normal sweep outcome.
func (s *Server) handleClusterRecords(w http.ResponseWriter, r *http.Request) {
	resp := clusterRecordsResponse{Records: []store.RecordInfo{}}
	if s.store != nil {
		resp.Records = s.store.List()
	}
	writeJSON(w, http.StatusOK, resp)
}

// validRecordName reports whether a peer-supplied record name is a single
// safe path component. Store record names are hex digests plus a fixed
// extension, so the alphabet is tight; anything with separators, parent
// references, or a leading dot is an attempted traversal, not a record.
func validRecordName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	if name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// handleClusterRecord streams one record file's raw encoded bytes. The
// encoding is CRC-self-verifying, so the peer imports blindly and lets its
// own codec reject torn or corrupt transfers.
func (s *Server) handleClusterRecord(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validRecordName(name) {
		writeError(w, http.StatusBadRequest, "invalid record name")
		return
	}
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no durable store")
		return
	}
	data, ok := s.store.ExportRaw(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no record %q", name)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// Store exposes the durable store (nil when persistence is disabled) for
// the cluster layer's anti-entropy importer.
func (s *Server) Store() *store.Store { return s.store }

// SpecDigest returns the graph digest a job body routes on: the digest in
// the cache key that submission derives from the same body, by the same
// decode → normalize → materialize → digest path (resolveSpec), so every
// node agrees on a body's owner. It keeps no state and decodes the body on
// every call; a fleet node resolves a body through its own service instead
// (Server.Resolve), whose memo answers a repeated body from one hash with
// the same digest and errors.
func SpecDigest(body []byte) (string, error) {
	res, err := resolveSpec(body)
	return res.Digest(), err
}
