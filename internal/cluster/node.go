package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
	// the node is a combined router+worker: it owns a ring segment, which
	// its Local service builds. When absent (or empty) the node is a pure
	// router: it forwards every submit to its owner, while its Local
	// service still answers its sessions and the peer endpoints.
	Self string
	// Peers is the full fleet list, host:port each. Order does not matter:
	// the ring is a function of the peer set.
	Peers []string
	// Local is the in-process service this node fronts; required. It reads
	// and resolves every body the node routes (under its MaxBodyBytes),
	// serves the job IDs it minted, and answers every route the node does
	// not route itself: sessions, health and the peer-facing cluster
	// endpoints. A worker node makes it mint job IDs scoped to its ring
	// index.
	Local *service.Server
	// PollInterval is the peer health/queue summary poll cadence (default
	// 1s). The poll is what makes backpressure and drain routing
	// fleet-aware without per-request fan-out.
	PollInterval time.Duration
	// SyncInterval enables the background anti-entropy sweep at this
	// cadence; zero leaves sweeps manual (SweepOnce).
	SyncInterval time.Duration
}

// Node is the fleet-facing HTTP handler: it owns a ring, routes job
// traffic by graph digest, and serves its own ring segment and every
// replica-local route through its Local service. Create with New, release
// with Close.
type Node struct {
	cfg     Config
	ring    *Ring
	selfIdx int // index into ring.Peers(), -1 for a pure router
	mux     *http.ServeMux
	api     *http.Client // proxied API calls and polls: 15s overall timeout
	// stream proxies event streams with a header-only timeout: streams are
	// long-lived by design, an overall timeout would sever them.
	stream *http.Client

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
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: no local service attached")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = defaultPollInterval
	}
	n := &Node{
		cfg:    cfg,
		ring:   NewRing(cfg.Peers, DefaultVNodes),
		api:    &http.Client{Timeout: 15 * time.Second},
		stream: &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 15 * time.Second}},
		sums:   make(map[int]peerStatus),
		done:   make(chan struct{}),
	}
	n.selfIdx = n.ring.Index(cfg.Self)
	if n.selfIdx >= 0 {
		cfg.Local.SetJobIDPrefix(prefixID(n.selfIdx, ""))
	}
	n.routes()
	n.wg.Add(1)
	go n.pollLoop()
	if cfg.SyncInterval > 0 && cfg.Local.Store() != nil {
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
	// Every other route is this replica's own: live graph sessions (a
	// session's mutable graph lives in one process, so it bypasses
	// digest-affinity routing), health, and the peer-facing summary and
	// record endpoints the fleet listener must expose.
	n.mux.Handle("/", n.cfg.Local)
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// ---- job IDs --------------------------------------------------------

// Fleet job IDs have the form p<ringIndex>~j<n>: each worker node's service
// mints them with its own ring index, so any node reads the owner off the
// ID and relays the answer byte for byte, no lookup table needed.

// parseID splits a fleet job ID into its ring index and the rest;
// unprefixed IDs map to (-1, id). It accepts what ^p(\d+)~(.+)$ matches.
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

// servesHere reports whether a job-scoped request for the ring index idx
// belongs to this node's own service: unprefixed, own-prefixed, or
// forwarded by a peer (a forwarded request is never re-proxied, so no
// routing loop can form).
func (n *Node) servesHere(r *http.Request, idx int) bool {
	return idx < 0 || idx == n.selfIdx || r.Header.Get(forwardedHeader) != ""
}

// ---- relaying --------------------------------------------------------

// proxy sends one request to the ring peer at idx, marked as forwarded so
// the peer serves it itself. The caller closes the response body.
func (n *Node) proxy(ctx context.Context, client *http.Client, idx int, method, uri string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+n.ring.Peers()[idx]+uri, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(forwardedHeader, n.cfg.Self)
	return client.Do(req)
}

// relayHeader copies the headers routing clients act on and the status.
func relayHeader(w http.ResponseWriter, code int, header http.Header) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(code)
}

// proxyTo relays r to the ring peer at idx and copies the answer
// downstream as the peer wrote it. A stream flushes each chunk as it
// arrives, so NDJSON events reach the client live.
func (n *Node) proxyTo(w http.ResponseWriter, r *http.Request, idx int, body []byte, stream bool) {
	client := n.api
	if stream {
		client = n.stream
	}
	resp, err := n.proxy(r.Context(), client, idx, r.Method, r.URL.RequestURI(), body)
	if err != nil {
		n.peerErrors.Add(1)
		writeErr(w, http.StatusBadGateway, "peer %s: %v", n.ring.Peers()[idx], err)
		return
	}
	defer resp.Body.Close()
	n.routedRemote.Add(1)
	relayHeader(w, resp.StatusCode, resp.Header)
	if !stream {
		_, _ = io.Copy(w, resp.Body)
		return
	}
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

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ---- submit routing --------------------------------------------------

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A forwarded submit is served locally, full stop: the sending node
	// already chose this replica (owner or hedge target), and re-proxying
	// could loop.
	if r.Header.Get(forwardedHeader) != "" {
		n.routedLocal.Add(1)
		n.cfg.Local.ServeHTTP(w, r)
		return
	}
	// The body is read and resolved once, through the node's own service:
	// the routing digest comes from its spec memo, and a body the node
	// owns is submitted from that resolution, not read or hashed again.
	body, ok := n.cfg.Local.ReadBody(w, r)
	if !ok {
		return
	}
	res, err := n.cfg.Local.Resolve(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	digest := res.Digest()
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
		if done := n.submitTo(w, r, target, body, res); done {
			return
		}
	}
	writeErr(w, http.StatusBadGateway, "no replica available for digest %s", digest)
}

// submitTo sends one submit to the ring peer at index target: the
// resolution to the node's own service, the body bytes to a peer. It
// reports true when an answer was written downstream; false means the
// replica is unreachable or draining and the caller should hedge.
func (n *Node) submitTo(w http.ResponseWriter, r *http.Request, target int, body []byte, res service.Resolution) bool {
	if target == n.selfIdx {
		if !n.cfg.Local.SubmitResolved(w, res) {
			return false // local drain: let the hedge try a peer
		}
		n.routedLocal.Add(1)
		return true
	}
	for attempt := 0; attempt < submitTries; attempt++ {
		if attempt > 0 {
			n.retries.Add(1)
			time.Sleep(retryPause)
		}
		resp, err := n.proxy(r.Context(), n.api, target, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			continue
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && isDraining(respBody) {
			return false // peer is draining: hedge
		}
		n.routedRemote.Add(1)
		relayHeader(w, resp.StatusCode, resp.Header)
		_, _ = w.Write(respBody)
		return true
	}
	n.peerErrors.Add(1)
	return false
}

// isDraining distinguishes a peer's drain 503 (hedge to the successor)
// from a queue-full 503 (relay: that is backpressure, not failure).
func isDraining(body []byte) bool {
	var e struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(body, &e) == nil && strings.Contains(e.Error, "draining")
}

// ---- reads, cancel, events -------------------------------------------

// byID routes the job-scoped endpoints by the ID's ring prefix. stream
// marks the NDJSON event stream, which is relayed live and never times out
// as a whole.
func (n *Node) byID(stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		idx, _ := parseID(id)
		if n.servesHere(r, idx) {
			if !stream {
				n.routedLocal.Add(1)
			}
			n.cfg.Local.ServeHTTP(w, r)
			return
		}
		if idx >= len(n.ring.Peers()) {
			writeErr(w, http.StatusNotFound, "no job %q: ring index %d out of range", id, idx)
			return
		}
		n.proxyTo(w, r, idx, nil, stream)
	}
}

// handleVerify routes POST /v1/verify by the job_id's ring prefix.
func (n *Node) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, ok := n.cfg.Local.ReadBody(w, r)
	if !ok {
		return
	}
	var req struct {
		JobID string `json:"job_id"`
	}
	_ = json.Unmarshal(body, &req)
	idx, _ := parseID(req.JobID)
	if n.servesHere(r, idx) {
		n.routedLocal.Add(1)
		n.cfg.Local.ServeVerify(w, body)
		return
	}
	if idx >= len(n.ring.Peers()) {
		writeErr(w, http.StatusNotFound, "no job %q: ring index %d out of range", req.JobID, idx)
		return
	}
	n.proxyTo(w, r, idx, body, false)
}

// ---- metrics ---------------------------------------------------------

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

// handleMetrics merges the local service counters with the cluster_* block
// into one flat JSON document.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		service.MetricsSnapshot
		ClusterMetrics
	}{n.cfg.Local.Metrics(), n.Metrics()})
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
	if idx == n.selfIdx {
		return n.cfg.Local.ClusterSummary(), nil
	}
	var sum service.ClusterSummary
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
