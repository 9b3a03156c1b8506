package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftspanner/ftspanner/internal/service"
)

// Defaults for the node's tunables.
const (
	defaultPollInterval = time.Second
	defaultMaxBody      = 8 << 20
	// submitTries bounds the per-peer forwarding attempts on network
	// errors; the hedge to the ring successor is on top of these.
	submitTries = 2
	// retryPause separates the bounded retries — long enough to ride out a
	// TCP accept-queue blip, short enough that the hedge is not delayed
	// noticeably.
	retryPause = 25 * time.Millisecond
)

// forwardedHeader marks a request one fleet node proxied to another. A
// receiving node serves a forwarded request locally and never re-proxies,
// so no routing loop can form: the sender picked this replica on purpose —
// as the digest's owner, or as the hedge target when the owner is down.
const forwardedHeader = "X-Ftspanner-Forwarded"

// Config assembles a Node.
type Config struct {
	// Self is this node's advertised host:port. When it appears in Peers
	// the node is a combined router+worker (it owns a ring segment); when
	// absent (or empty) the node is a pure router. Local must be non-nil
	// for worker duty.
	Self string
	// Peers is the full fleet list, host:port each. Order does not matter:
	// the ring is a function of the peer set.
	Peers []string
	// Local is the in-process service this node fronts; nil for a pure
	// router with no local build capacity.
	Local *service.Server
	// VNodes is the virtual-node count per peer (DefaultVNodes when <= 0).
	VNodes int
	// PollInterval is the peer health/queue summary poll cadence (default
	// 1s). The poll is what makes backpressure and drain routing
	// fleet-aware without per-request fan-out.
	PollInterval time.Duration
	// SyncInterval enables the background anti-entropy sweep at this
	// cadence; zero leaves sweeps manual (SweepOnce).
	SyncInterval time.Duration
	// MaxBodyBytes bounds submit/verify request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Client overrides the HTTP client for proxied API calls and polls;
	// nil selects a client with a 15s overall timeout.
	Client *http.Client
	// StreamClient overrides the HTTP client for proxied event streams;
	// nil selects a client with header-only timeouts (streams are
	// long-lived by design, an overall timeout would sever them).
	StreamClient *http.Client
}

// Node is the fleet-facing HTTP handler: it owns a ring, routes job
// traffic by graph digest, and (with a Local service) serves its own ring
// segment. Create with New, release with Close.
type Node struct {
	cfg     Config
	ring    *Ring
	selfIdx int // index into ring.Peers(), -1 for a pure router
	mux     *http.ServeMux
	api     *http.Client
	stream  *http.Client

	sumMu sync.Mutex
	sums  map[int]peerStatus

	routedLocal  atomic.Int64
	routedRemote atomic.Int64
	hedged       atomic.Int64
	retries      atomic.Int64
	peerErrors   atomic.Int64
	backpressure atomic.Int64
	syncSweeps   atomic.Int64
	syncPulled   atomic.Int64
	syncRejected atomic.Int64
	syncErrors   atomic.Int64

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// peerStatus is the latest poll result for one peer.
type peerStatus struct {
	sum service.ClusterSummary
	err error
	at  time.Time
}

// New builds a Node over cfg and starts its background poll (and sync, if
// configured) loops.
func New(cfg Config) (*Node, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = defaultPollInterval
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	n := &Node{
		cfg:    cfg,
		ring:   NewRing(cfg.Peers, cfg.VNodes),
		api:    cfg.Client,
		stream: cfg.StreamClient,
		sums:   make(map[int]peerStatus),
		done:   make(chan struct{}),
	}
	n.selfIdx = n.ring.Index(cfg.Self)
	if n.selfIdx >= 0 && cfg.Local == nil {
		return nil, fmt.Errorf("cluster: self %q is in the peer list but no local service is attached", cfg.Self)
	}
	if n.api == nil {
		n.api = &http.Client{Timeout: 15 * time.Second}
	}
	if n.stream == nil {
		n.stream = &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 15 * time.Second}}
	}
	n.routes()
	n.wg.Add(1)
	go n.pollLoop()
	if cfg.SyncInterval > 0 && cfg.Local != nil && cfg.Local.Store() != nil {
		n.wg.Add(1)
		go n.syncLoop()
	}
	return n, nil
}

// Close stops the background loops. The attached Local service is not
// closed — its lifecycle belongs to the caller.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
	})
}

// Ring exposes the node's ring for tests and diagnostics.
func (n *Node) Ring() *Ring { return n.ring }

func (n *Node) routes() {
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	n.mux.HandleFunc("GET /v1/jobs/{id}", n.byID(false))
	n.mux.HandleFunc("GET /v1/jobs/{id}/spanner", n.byID(false))
	n.mux.HandleFunc("GET /v1/jobs/{id}/trace", n.byID(false))
	n.mux.HandleFunc("DELETE /v1/jobs/{id}", n.byID(false))
	n.mux.HandleFunc("GET /v1/jobs/{id}/events", n.byID(true))
	n.mux.HandleFunc("POST /v1/verify", n.handleVerify)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	n.mux.HandleFunc("GET /healthz", n.handleHealthz)
	n.mux.HandleFunc("GET /v1/cluster/summary", n.local)
	n.mux.HandleFunc("GET /v1/cluster/records", n.local)
	n.mux.HandleFunc("GET /v1/cluster/records/{name}", n.local)
	// Live graph sessions are replica-local state (a session's mutable
	// graph lives in one process), so they bypass digest-affinity routing
	// and bind to this node's own service.
	n.mux.HandleFunc("POST /v1/sessions", n.local)
	n.mux.HandleFunc("GET /v1/sessions/{id}", n.local)
	n.mux.HandleFunc("POST /v1/sessions/{id}/deltas", n.local)
	n.mux.HandleFunc("GET /v1/sessions/{id}/spanner", n.local)
	n.mux.HandleFunc("GET /v1/sessions/{id}/events", n.local)
	n.mux.HandleFunc("DELETE /v1/sessions/{id}", n.local)
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// local passes a request straight to the attached service (the
// peer-facing anti-entropy and summary endpoints must be reachable on the
// fleet listener).
func (n *Node) local(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Local == nil {
		writeErr(w, http.StatusNotFound, "pure router: no local service")
		return
	}
	n.cfg.Local.ServeHTTP(w, r)
}

// ---- job ID prefixing ------------------------------------------------

// Fleet job IDs have the form p<ringIndex>~<localID>. The prefix makes any
// job readable through any node: the ring index says which replica holds
// it, no lookup table needed.

// parseID splits a fleet job ID into its ring index and the replica-local
// ID; unprefixed IDs map to (-1, id). It accepts what ^p(\d+)~(.+)$ matches.
func parseID(id string) (int, string) {
	head, local, ok := strings.Cut(id, "~")
	if !ok || len(head) < 2 || head[0] != 'p' || local == "" || strings.ContainsRune(local, '\n') ||
		strings.IndexFunc(head[1:], func(r rune) bool { return r < '0' || r > '9' }) >= 0 {
		return -1, id
	}
	idx, err := strconv.Atoi(head[1:])
	if err != nil {
		return -1, id
	}
	return idx, local
}

// prefixID scopes a replica-local job ID to ring index idx.
func prefixID(idx int, id string) string { return "p" + strconv.Itoa(idx) + "~" + id }

// rewriteID maps the string value of body's top-level field through fn and
// splices the new JSON string over the old, so every other byte leaves as
// the service wrote it. With leading set, only a body whose first key is
// field is rewritten, reading just its opening tokens (service answers
// carry their ID first); otherwise the field's last occurrence is, as a
// JSON decoder reads it. Anything else passes through untouched.
func rewriteID(body []byte, field string, fn func(string) string, leading bool) []byte {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return body
	}
	var id json.RawMessage // the field's value as last seen, ending at end
	end := int64(0)
	for dec.More() {
		key, err := dec.Token()
		var raw json.RawMessage
		if err != nil || dec.Decode(&raw) != nil {
			return body
		}
		if key == field {
			id, end = raw, dec.InputOffset()
		}
		if leading {
			break
		}
	}
	var val string
	if len(id) == 0 || id[0] != '"' || json.Unmarshal(id, &val) != nil {
		return body
	}
	quoted, _ := json.Marshal(fn(val)) // a string always marshals
	return slices.Concat(body[:end-int64(len(id))], quoted, body[end:])
}

// ---- local dispatch --------------------------------------------------

// capture is a buffering ResponseWriter for dispatching into the local
// service and post-processing the response (job-ID prefixing) before it
// leaves the node.
type capture struct {
	code   int
	header http.Header
	body   []byte
}

func (c *capture) Header() http.Header         { return c.header }
func (c *capture) WriteHeader(code int)        { c.code = code }
func (c *capture) Write(p []byte) (int, error) { c.body = append(c.body, p...); return len(p), nil }

// serveLocal serves req on the attached service into a buffer; a successful
// answer leaves with this node's ring prefix on its ID field, if one is named.
func (n *Node) serveLocal(req *http.Request, idField string) *capture {
	c := &capture{code: http.StatusOK, header: make(http.Header)}
	n.cfg.Local.ServeHTTP(c, req)
	if c.code < 300 && n.selfIdx >= 0 && idField != "" {
		c.body = rewriteID(c.body, idField, func(id string) string { return prefixID(n.selfIdx, id) }, true)
	}
	return c
}

// dispatchLocal serves req on the attached service and relays the answer.
func (n *Node) dispatchLocal(w http.ResponseWriter, req *http.Request, idField string) {
	c := n.serveLocal(req, idField)
	relay(w, c.code, c.header, c.body)
}

// relay writes a buffered upstream response downstream, preserving the
// headers routing clients act on.
func relay(w http.ResponseWriter, code int, header http.Header, body []byte) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ---- submit routing --------------------------------------------------

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, n.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "read body: %v", err)
		return
	}
	// A forwarded submit is served locally, full stop: the sending node
	// already chose this replica (owner or hedge target), and re-proxying
	// could loop.
	if r.Header.Get(forwardedHeader) != "" {
		if n.cfg.Local == nil {
			writeErr(w, http.StatusBadGateway, "pure router cannot serve forwarded submit")
			return
		}
		n.routedLocal.Add(1)
		n.dispatchLocal(w, newLocalRequest(r.Method, "/v1/jobs", body), "id")
		return
	}
	digest, err := service.SpecDigest(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	cands := n.ring.Successors(digest, 2)
	owner := cands[0]

	// Fleet-aware backpressure: when the owner's polled summary says its
	// queue is full (not draining — that hedges instead), answer with the
	// owner's own Retry-After rather than forwarding a request it would
	// reject. The whole fleet stops accepting the digest's work, instead
	// of blindly fanning a hot shard's overflow onto replicas that would
	// just proxy it back.
	if sum, ok := n.peerSummary(owner); ok && !sum.Accepting && !sum.Draining {
		n.backpressure.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(max(1, sum.RetryAfterSec)))
		writeErr(w, http.StatusServiceUnavailable,
			"owner %s queue full (%d/%d queued)", n.ring.Peers()[owner], sum.QueueLen, sum.QueueCap)
		return
	}

	tries := cands
	if sum, ok := n.peerSummary(owner); ok && sum.Draining && len(cands) > 1 {
		// Drain-aware handshake: a draining owner advertises it via the
		// summary poll, so the hedge happens before any doomed forward.
		n.hedged.Add(1)
		tries = cands[1:]
	}
	for i, target := range tries {
		if i > 0 {
			n.hedged.Add(1)
		}
		if done := n.submitTo(w, target, body); done {
			return
		}
	}
	writeErr(w, http.StatusBadGateway, "no replica available for digest %s", digest)
}

// submitTo forwards one submit to the ring peer at index target. It
// reports true when a response was written downstream; false means the
// peer is unreachable or draining and the caller should hedge.
func (n *Node) submitTo(w http.ResponseWriter, target int, body []byte) bool {
	if target == n.selfIdx && n.cfg.Local != nil {
		c := n.serveLocal(newLocalRequest(http.MethodPost, "/v1/jobs", body), "id")
		if c.code == http.StatusServiceUnavailable && isDraining(c.body) {
			return false // local drain: let the hedge try a peer
		}
		n.routedLocal.Add(1)
		relay(w, c.code, c.header, c.body)
		return true
	}
	peer := n.ring.Peers()[target]
	for attempt := 0; attempt < submitTries; attempt++ {
		if attempt > 0 {
			n.retries.Add(1)
			time.Sleep(retryPause)
		}
		req, err := http.NewRequest(http.MethodPost, "http://"+peer+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(forwardedHeader, n.cfg.Self)
		resp, err := n.api.Do(req)
		if err != nil {
			continue
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && isDraining(respBody) {
			return false // peer is draining: hedge
		}
		n.routedRemote.Add(1)
		relay(w, resp.StatusCode, resp.Header, respBody)
		return true
	}
	n.peerErrors.Add(1)
	return false
}

// isDraining distinguishes a drain 503 (hedge to the successor) from a
// queue-full 503 (relay: that is backpressure, not failure).
func isDraining(body []byte) bool {
	var e struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(body, &e) == nil && strings.Contains(e.Error, "draining")
}

// ---- reads, cancel, events -------------------------------------------

// byID routes the job-scoped endpoints by the ID's ring prefix. stream
// selects pass-through proxying (NDJSON event streams must flush as they
// go and never buffer to completion).
func (n *Node) byID(stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		idx, rawID := parseID(id)
		localPath := strings.Replace(r.URL.Path, "/v1/jobs/"+id, "/v1/jobs/"+rawID, 1)
		forwarded := r.Header.Get(forwardedHeader) != ""
		if idx < 0 || idx == n.selfIdx || forwarded {
			// Unprefixed, own-prefix, or forwarded: serve locally.
			if n.cfg.Local == nil {
				writeErr(w, http.StatusNotFound, "no job %q", id)
				return
			}
			r2 := r.Clone(r.Context())
			r2.URL.Path = localPath
			if stream {
				n.cfg.Local.ServeHTTP(w, r2)
				return
			}
			n.routedLocal.Add(1)
			n.dispatchLocal(w, r2, "id")
			return
		}
		if idx >= len(n.ring.Peers()) {
			writeErr(w, http.StatusNotFound, "no job %q: ring index %d out of range", id, idx)
			return
		}
		n.proxyByID(w, r, idx, localPath, stream)
	}
}

// proxyByID forwards a job-scoped request to the ring peer at idx.
func (n *Node) proxyByID(w http.ResponseWriter, r *http.Request, idx int, path string, stream bool) {
	peer := n.ring.Peers()[idx]
	req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+peer+path, nil)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "proxy: %v", err)
		return
	}
	req.Header.Set(forwardedHeader, n.cfg.Self)
	client := n.api
	if stream {
		client = n.stream
	}
	resp, err := client.Do(req)
	if err != nil {
		n.peerErrors.Add(1)
		writeErr(w, http.StatusBadGateway, "peer %s: %v", peer, err)
		return
	}
	defer resp.Body.Close()
	n.routedRemote.Add(1)
	if !stream {
		body, _ := io.ReadAll(resp.Body)
		relay(w, resp.StatusCode, resp.Header, body)
		return
	}
	// Stream relay: copy chunks as they arrive, flushing each one so the
	// client sees events live. The peer prefixed nothing (events carry no
	// job IDs), so bytes pass through untouched.
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		m, err := resp.Body.Read(buf)
		if m > 0 {
			if _, werr := w.Write(buf[:m]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleVerify routes POST /v1/verify by the job_id's ring prefix.
func (n *Node) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, n.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "read body: %v", err)
		return
	}
	var req struct {
		JobID string `json:"job_id"`
	}
	_ = json.Unmarshal(body, &req)
	idx, rawID := parseID(req.JobID)
	body = rewriteID(body, "job_id", func(string) string { return rawID }, false)
	forwarded := r.Header.Get(forwardedHeader) != ""
	if idx < 0 || idx == n.selfIdx || forwarded {
		if n.cfg.Local == nil {
			writeErr(w, http.StatusNotFound, "no job %q", req.JobID)
			return
		}
		n.routedLocal.Add(1)
		n.dispatchLocal(w, newLocalRequest(http.MethodPost, "/v1/verify", body), "job_id")
		return
	}
	if idx >= len(n.ring.Peers()) {
		writeErr(w, http.StatusNotFound, "no job %q: ring index %d out of range", req.JobID, idx)
		return
	}
	peer := n.ring.Peers()[idx]
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+peer+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		writeErr(w, http.StatusBadGateway, "proxy: %v", err)
		return
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, n.cfg.Self)
	resp, err := n.api.Do(preq)
	if err != nil {
		n.peerErrors.Add(1)
		writeErr(w, http.StatusBadGateway, "peer %s: %v", peer, err)
		return
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(resp.Body)
	n.routedRemote.Add(1)
	// The serving node already scoped the response job_id with its own
	// ring prefix (forwarded requests are served locally there).
	relay(w, resp.StatusCode, resp.Header, respBody)
}

// ---- health and metrics ----------------------------------------------

func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Local != nil {
		n.cfg.Local.ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "mode": "router", "peers": len(n.ring.Peers())})
}

// ClusterMetrics is the fleet block of GET /metrics. Field names carry the
// cluster_ prefix so they land alongside the service counters in one flat
// document.
type ClusterMetrics struct {
	Self                string `json:"cluster_self,omitempty"`
	Peers               int    `json:"cluster_peers"`
	RoutedLocalTotal    int64  `json:"cluster_routed_local_total"`
	RoutedRemoteTotal   int64  `json:"cluster_routed_remote_total"`
	HedgedTotal         int64  `json:"cluster_hedged_total"`
	RetriesTotal        int64  `json:"cluster_retries_total"`
	PeerErrorsTotal     int64  `json:"cluster_peer_errors_total"`
	BackpressureRejects int64  `json:"cluster_backpressure_rejects_total"`
	SyncSweepsTotal     int64  `json:"cluster_sync_sweeps_total"`
	SyncPulledTotal     int64  `json:"cluster_sync_pulled_total"`
	SyncRejectedTotal   int64  `json:"cluster_sync_rejected_total"`
	SyncErrorsTotal     int64  `json:"cluster_sync_errors_total"`
	PeersAccepting      int    `json:"cluster_peers_accepting"`
	PeersDraining       int    `json:"cluster_peers_draining"`
	PeersUnreachable    int    `json:"cluster_peers_unreachable"`
}

// Metrics snapshots the node's fleet counters and the latest poll's view
// of peer availability.
func (n *Node) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		Self:                n.cfg.Self,
		Peers:               len(n.ring.Peers()),
		RoutedLocalTotal:    n.routedLocal.Load(),
		RoutedRemoteTotal:   n.routedRemote.Load(),
		HedgedTotal:         n.hedged.Load(),
		RetriesTotal:        n.retries.Load(),
		PeerErrorsTotal:     n.peerErrors.Load(),
		BackpressureRejects: n.backpressure.Load(),
		SyncSweepsTotal:     n.syncSweeps.Load(),
		SyncPulledTotal:     n.syncPulled.Load(),
		SyncRejectedTotal:   n.syncRejected.Load(),
		SyncErrorsTotal:     n.syncErrors.Load(),
	}
	n.sumMu.Lock()
	for _, st := range n.sums {
		switch {
		case st.err != nil:
			m.PeersUnreachable++
		case st.sum.Draining:
			m.PeersDraining++
		case st.sum.Accepting:
			m.PeersAccepting++
		}
	}
	n.sumMu.Unlock()
	return m
}

// handleMetrics merges the local service counters (when present) with the
// cluster_* block into one flat JSON document.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if n.cfg.Local != nil {
		_ = enc.Encode(struct {
			service.MetricsSnapshot
			ClusterMetrics
		}{n.cfg.Local.Metrics(), n.Metrics()})
		return
	}
	_ = enc.Encode(n.Metrics())
}

// ---- peer summary polling --------------------------------------------

// pollLoop keeps n.sums fresh at PollInterval.
func (n *Node) pollLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.PollInterval)
	defer t.Stop()
	n.PollNow()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
			n.PollNow()
		}
	}
}

// PollNow synchronously refreshes every peer's health/queue summary.
// Exposed so tests (and operators via SIGUSR-style hooks) can force a
// deterministic refresh instead of waiting out the interval.
func (n *Node) PollNow() {
	for idx := range n.ring.Peers() {
		st := peerStatus{at: time.Now()}
		st.sum, st.err = n.fetchSummary(idx)
		n.sumMu.Lock()
		n.sums[idx] = st
		n.sumMu.Unlock()
	}
}

// fetchSummary reads one peer's /v1/cluster/summary — in process for
// self, over HTTP otherwise.
func (n *Node) fetchSummary(idx int) (service.ClusterSummary, error) {
	var sum service.ClusterSummary
	if idx == n.selfIdx && n.cfg.Local != nil {
		c := n.serveLocal(newLocalRequest(http.MethodGet, "/v1/cluster/summary", nil), "")
		if c.code != http.StatusOK {
			return sum, fmt.Errorf("local summary: status %d", c.code)
		}
		return sum, json.Unmarshal(c.body, &sum)
	}
	resp, err := n.api.Get("http://" + n.ring.Peers()[idx] + "/v1/cluster/summary")
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("summary: status %d", resp.StatusCode)
	}
	return sum, json.NewDecoder(resp.Body).Decode(&sum)
}

// peerSummary returns the latest successful summary for ring index idx.
func (n *Node) peerSummary(idx int) (service.ClusterSummary, bool) {
	n.sumMu.Lock()
	defer n.sumMu.Unlock()
	st, ok := n.sums[idx]
	if !ok || st.err != nil {
		return service.ClusterSummary{}, false
	}
	return st.sum, true
}

// ---- request plumbing ------------------------------------------------

// newLocalRequest builds a request for in-process dispatch to the
// attached service.
func newLocalRequest(method, path string, body []byte) *http.Request {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, _ := http.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}
