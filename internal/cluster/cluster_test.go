package cluster

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/service"
)

// ---- fleet harness ---------------------------------------------------
//
// An in-process fleet: N httptest listeners, each fronting one Node that
// wraps one service.Server. The listeners must exist before the nodes
// (nodes need the full peer address list), so each listener delegates
// through an atomic handler pointer that is swapped in once the node is
// built.

type replica struct {
	addr    string
	svc     *service.Server
	node    *Node
	ts      *httptest.Server
	handler atomic.Pointer[http.Handler]
	dir     string
}

type fleet struct {
	t        *testing.T
	replicas []*replica
}

func (f *fleet) peers() []string {
	out := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = r.addr
	}
	return out
}

// startFleet brings up n combined router+worker replicas, each with a
// durable store, short poll intervals, and no background sync (tests sweep
// explicitly for determinism).
func startFleet(t *testing.T, n int, cfg service.Config) *fleet {
	t.Helper()
	f := &fleet{t: t}
	for i := 0; i < n; i++ {
		rep := &replica{}
		rep.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := rep.handler.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			http.Error(w, "replica still starting", http.StatusServiceUnavailable)
		}))
		u, err := url.Parse(rep.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		rep.addr = u.Host
		f.replicas = append(f.replicas, rep)
	}
	peers := f.peers()
	for i, rep := range f.replicas {
		c := cfg
		if c.Workers == 0 {
			c.Workers = 2
		}
		if c.StoreDir == "" || i > 0 {
			rep.dir = t.TempDir()
			c.StoreDir = rep.dir
		} else {
			rep.dir = c.StoreDir
		}
		c.JobRetention = time.Minute
		svc, err := service.New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep.svc = svc
		node, err := New(Config{
			Self:         rep.addr,
			Peers:        peers,
			Local:        svc,
			PollInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.node = node
		var h http.Handler = node
		rep.handler.Store(&h)
	}
	t.Cleanup(func() {
		for _, rep := range f.replicas {
			rep.node.Close()
			rep.ts.Close()
			rep.svc.Close()
		}
	})
	return f
}

// pollAll forces a synchronous summary refresh on every node.
func (f *fleet) pollAll() {
	for _, rep := range f.replicas {
		rep.node.PollNow()
	}
}

// byRing maps a ring index to its replica: the ring sorts peers by
// address string, so ring order and creation order differ.
func (f *fleet) byRing(idx int) *replica {
	addr := f.replicas[0].node.Ring().Peers()[idx]
	for _, rep := range f.replicas {
		if rep.addr == addr {
			return rep
		}
	}
	f.t.Fatalf("no replica at ring index %d (%s)", idx, addr)
	return nil
}

// specBody builds a deterministic small-graph job body for seed.
func specBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"algorithm":"greedy","stretch":3,"faults":1,"mode":"vertex",`+
		`"generator":{"name":"random","n":40,"m":100,"seed":%d}}`, seed))
}

// slowBody builds a body whose build takes long enough to observe queued
// and running states.
func slowBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"algorithm":"greedy","stretch":3,"faults":1,"mode":"vertex",`+
		`"generator":{"name":"random","n":300,"m":9000,"seed":%d}}`, seed))
}

// seedOwnedBy scans seeds until specBody(seed)'s digest is owned by ring
// index want, so tests can aim traffic at a chosen replica.
func seedOwnedBy(t *testing.T, r *Ring, want int, slow bool) (int64, []byte) {
	t.Helper()
	for seed := int64(1); seed < 500; seed++ {
		body := specBody(seed)
		if slow {
			body = slowBody(seed)
		}
		digest, err := service.SpecDigest(body)
		if err != nil {
			t.Fatal(err)
		}
		if r.Owner(digest) == want {
			return seed, body
		}
	}
	t.Fatal("no seed found owned by target replica")
	return 0, nil
}

// postJob submits body through the replica at entry and decodes the reply.
func postJob(t *testing.T, entry *replica, body []byte) (map[string]any, *http.Response) {
	t.Helper()
	resp, err := http.Post(entry.ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode submit reply (status %d): %v", resp.StatusCode, err)
	}
	return m, resp
}

// getJSON fetches path through entry and decodes the JSON reply.
func getJSON(t *testing.T, entry *replica, path string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(entry.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %s (status %d): %v", path, resp.StatusCode, err)
	}
	return m, resp.StatusCode
}

// waitDone polls a job through entry until it reaches a terminal state.
func waitDone(t *testing.T, entry *replica, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getJSON(t, entry, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: http %d (%v)", id, code, st)
		}
		switch st["state"] {
		case "done":
			return st
		case "failed", "cancelled", "deadline":
			t.Fatalf("job %s terminal state %v: %v", id, st["state"], st["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// spannerDigest fetches a job's spanner through entry and hashes it.
func spannerDigest(t *testing.T, entry *replica, id string) string {
	t.Helper()
	m, code := getJSON(t, entry, "/v1/jobs/"+id+"/spanner")
	if code != http.StatusOK {
		t.Fatalf("spanner %s via %s: http %d (%v)", id, entry.addr, code, m)
	}
	text, _ := m["spanner"].(string)
	if text == "" {
		t.Fatalf("empty spanner for %s via %s", id, entry.addr)
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// ---- e2e: digest-stable routing and byte-identical results -----------

// TestFleetDigestAffinity is the acceptance e2e: the same graph submitted
// through each of three replicas routes to one owner (cache hit on the
// second and third entry points), and the spanner bytes are identical from
// every entry point.
func TestFleetDigestAffinity(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	body := specBody(7)
	digest, err := service.SpecDigest(body)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.replicas[0].node.Ring().Owner(digest)

	first, resp := postJob(t, f.replicas[0], body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via replica 0: http %d (%v)", resp.StatusCode, first)
	}
	id, _ := first["id"].(string)
	wantPrefix := fmt.Sprintf("p%d~", owner)
	if !strings.HasPrefix(id, wantPrefix) {
		t.Fatalf("job id %q not scoped to owner %d", id, owner)
	}
	waitDone(t, f.replicas[1], id)

	// Entry through the other two replicas must route to the same owner
	// and be answered from its result cache (or dedup) — no second build.
	for _, entry := range f.replicas[1:] {
		m, _ := postJob(t, entry, body)
		mid, _ := m["id"].(string)
		if !strings.HasPrefix(mid, wantPrefix) {
			t.Fatalf("resubmission via %s got id %q, want owner prefix %q", entry.addr, mid, wantPrefix)
		}
		if m["cached"] != true && m["deduplicated"] != true {
			t.Fatalf("resubmission via %s rebuilt instead of hitting the owner cache: %v", entry.addr, m)
		}
	}

	// Byte-identical spanners from every entry point.
	want := spannerDigest(t, f.replicas[0], id)
	for _, entry := range f.replicas[1:] {
		if got := spannerDigest(t, entry, id); got != want {
			t.Fatalf("spanner digest differs via %s: %s != %s", entry.addr, got, want)
		}
	}

	// Routing metrics: the owner served locally; at least one non-owner
	// proxied. (Entry 0 may or may not be the owner.)
	if local := f.byRing(owner).node.Metrics().RoutedLocalTotal; local == 0 {
		t.Error("owner served no local traffic")
	}
	remote := int64(0)
	for _, rep := range f.replicas {
		if rep != f.byRing(owner) {
			remote += rep.node.Metrics().RoutedRemoteTotal
		}
	}
	if remote == 0 {
		t.Error("no request was proxied to the owner")
	}
}

// TestFleetVerifyRoutesByPrefix checks POST /v1/verify reaches the owning
// replica from any entry point and scopes job_id back.
func TestFleetVerifyRoutesByPrefix(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	first, _ := postJob(t, f.replicas[0], specBody(7))
	id, _ := first["id"].(string)
	waitDone(t, f.replicas[0], id)
	for _, entry := range f.replicas {
		req := fmt.Sprintf(`{"job_id":%q,"trials":8,"seed":1}`, id)
		resp, err := http.Post(entry.ts.URL+"/v1/verify", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || m["ok"] != true {
			t.Fatalf("verify via %s: http %d %v", entry.addr, resp.StatusCode, m)
		}
		if m["job_id"] != id {
			t.Fatalf("verify via %s returned job_id %v, want %q", entry.addr, m["job_id"], id)
		}
	}
}

// ---- e2e: failover ---------------------------------------------------

// TestFleetKilledOwnerFailsOver is the failover acceptance e2e: with the
// owning replica dead, a resubmission through a surviving replica succeeds
// via the ring successor, and the cluster_* metrics record the retry,
// peer error, and hedge.
func TestFleetKilledOwnerFailsOver(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	ring := f.replicas[0].node.Ring()

	// Aim at a digest owned by a replica that is NOT our entry, so the
	// entry must route remotely and then hedge.
	entry := f.replicas[0]
	entryIdx := ring.Index(entry.addr)
	ownerIdx := (entryIdx + 1) % 3
	_, body := seedOwnedBy(t, ring, ownerIdx, false)
	digest, _ := service.SpecDigest(body)
	succIdx := ring.Successors(digest, 2)[1]

	// Kill the owner.
	f.byRing(ownerIdx).ts.Close()

	m, resp := postJob(t, entry, body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover submit: http %d (%v)", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if !strings.HasPrefix(id, fmt.Sprintf("p%d~", succIdx)) {
		t.Fatalf("failover job id %q, want successor prefix p%d~", id, succIdx)
	}
	waitDone(t, entry, id)
	if spannerDigest(t, entry, id) == "" {
		t.Fatal("no spanner after failover")
	}

	cm := entry.node.Metrics()
	if cm.HedgedTotal == 0 {
		t.Errorf("cluster_hedged_total = 0 after failover, want > 0")
	}
	if cm.RetriesTotal == 0 {
		t.Errorf("cluster_retries_total = 0 after failover, want > 0")
	}
	if cm.PeerErrorsTotal == 0 {
		t.Errorf("cluster_peer_errors_total = 0 after failover, want > 0")
	}

	// The merged /metrics document exposes the same counters.
	mm, _ := getJSON(t, entry, "/metrics")
	if v, ok := mm["cluster_hedged_total"].(float64); !ok || v == 0 {
		t.Errorf("merged /metrics cluster_hedged_total = %v, want > 0", mm["cluster_hedged_total"])
	}
}

// TestFleetDrainingOwnerHedges checks the drain-aware handshake: a
// draining owner is skipped via its polled summary, before any forward.
func TestFleetDrainingOwnerHedges(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	ring := f.replicas[0].node.Ring()
	entry := f.replicas[0]
	entryIdx := ring.Index(entry.addr)
	ownerIdx := (entryIdx + 1) % 3
	_, body := seedOwnedBy(t, ring, ownerIdx, false)
	digest, _ := service.SpecDigest(body)
	succIdx := ring.Successors(digest, 2)[1]

	f.byRing(ownerIdx).svc.StartDrain()
	f.pollAll()

	m, resp := postJob(t, entry, body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with draining owner: http %d (%v)", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if !strings.HasPrefix(id, fmt.Sprintf("p%d~", succIdx)) {
		t.Fatalf("drain-hedged job id %q, want successor prefix p%d~", id, succIdx)
	}
	if entry.node.Metrics().HedgedTotal == 0 {
		t.Error("cluster_hedged_total = 0 after drain hedge, want > 0")
	}
	// The hedge never touched the draining owner.
	if f.byRing(ownerIdx).node.Metrics().RoutedLocalTotal != 0 {
		t.Error("draining owner still served a routed submit")
	}
}

// ---- e2e: fleet-aware backpressure -----------------------------------

// TestFleetBackpressureRelay checks the router answers for a queue-full
// owner with the owner's own Retry-After instead of forwarding (or blindly
// fanning out to a replica that does not own the digest).
func TestFleetBackpressureRelay(t *testing.T) {
	// The owner's single worker is parked on the chaos gate, so its one
	// queue slot fills deterministically — no reliance on build duration.
	gate := make(chan struct{})
	var block atomic.Bool
	f := startFleet(t, 3, service.Config{
		Workers:    1,
		QueueDepth: 1,
		Chaos: func(string) {
			if block.Load() {
				<-gate
			}
		},
	})
	t.Cleanup(func() { close(gate) }) // registered after startFleet: runs first
	ring := f.replicas[0].node.Ring()
	entry := f.replicas[0]
	entryIdx := ring.Index(entry.addr)
	ownerIdx := (entryIdx + 1) % 3
	owner := f.byRing(ownerIdx)

	// Three distinct digests owned by the same replica: one to occupy the
	// worker, one to fill the queue, one to bounce off the backpressure.
	var bodies [][]byte
	for seed := int64(1); len(bodies) < 3 && seed < 2000; seed++ {
		body := specBody(seed)
		if d, err := service.SpecDigest(body); err == nil && ring.Owner(d) == ownerIdx {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) < 3 {
		t.Fatal("not enough seeds owned by target replica")
	}

	block.Store(true)
	if _, resp := postJob(t, entry, bodies[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: http %d", resp.StatusCode)
	}
	waitQueueFull(t, owner.svc)
	if _, resp := postJob(t, entry, bodies[1]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: http %d", resp.StatusCode)
	}
	f.pollAll()

	m, resp := postJob(t, entry, bodies[2])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to full owner: http %d (%v), want 503", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("backpressure reply missing Retry-After")
	}
	if entry.node.Metrics().BackpressureRejects == 0 {
		t.Error("cluster_backpressure_rejects_total = 0, want > 0")
	}
	// No blind fan-out: the reject never reached a replica that does not
	// own the digest.
	for _, rep := range f.replicas {
		if rep != owner && rep.node.Metrics().RoutedLocalTotal > 0 {
			t.Errorf("replica %s served work it does not own", rep.addr)
		}
	}
	block.Store(false)
}

// waitQueueFull waits until the slow build has been dequeued (worker busy,
// queue empty) so the next submission lands in the queue slot.
func waitQueueFull(t *testing.T, svc *service.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Metrics().BuildsInFlight > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("slow build never started")
}

// ---- e2e: anti-entropy -----------------------------------------------

// TestFleetAntiEntropyWarm checks a replica pulls records it is missing
// from its peers, imports them through the verifying codec, and rejects
// corrupted pulls.
func TestFleetAntiEntropyWarm(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	ring := f.replicas[0].node.Ring()

	first, _ := postJob(t, f.replicas[0], specBody(7))
	id, _ := first["id"].(string)
	waitDone(t, f.replicas[0], id)
	digest, _ := service.SpecDigest(specBody(7))
	ownerIdx := ring.Owner(digest)
	// The owner persists after the job turns done; wait for the record so
	// the sweep below has something to pull.
	owner := f.byRing(ownerIdx)
	for deadline := time.Now().Add(10 * time.Second); len(owner.svc.Store().List()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("owner never persisted the record")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Pick a replica that does not hold the record and sweep.
	other := f.byRing((ownerIdx + 1) % 3)
	if got := len(other.svc.Store().List()); got != 0 {
		t.Fatalf("non-owner already holds %d records", got)
	}
	res, err := other.node.SweepOnce(context.Background())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Pulled != 1 {
		t.Fatalf("sweep pulled %d records, want 1 (result %+v)", res.Pulled, res)
	}
	if got := len(other.svc.Store().List()); got != 1 {
		t.Fatalf("store holds %d records after sweep, want 1", got)
	}
	// A second sweep is a no-op: nothing missing.
	res, err = other.node.SweepOnce(context.Background())
	if err != nil || res.Pulled != 0 {
		t.Fatalf("re-sweep pulled %d (err %v), want 0", res.Pulled, err)
	}
	if m := other.node.Metrics(); m.SyncSweepsTotal != 2 || m.SyncPulledTotal != 1 {
		t.Errorf("sync metrics = %+v, want 2 sweeps / 1 pulled", m)
	}

	// Corrupt the owner's record on disk: the third replica's sweep must
	// reject the pull through the codec and import nothing.
	ownerDir := owner.dir
	names, err := filepath.Glob(filepath.Join(ownerDir, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no record file in owner store dir: %v", err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	third := f.byRing((ownerIdx + 2) % 3)
	res, _ = third.node.SweepOnce(context.Background())
	// The corrupted record is rejected wherever it is pulled from; the
	// clean copy `other` now holds may satisfy the pull instead, so accept
	// either a rejection or a clean import — but never a quiet corrupt one.
	if res.Rejected == 0 && res.Pulled == 0 {
		t.Fatalf("third replica neither pulled nor rejected: %+v", res)
	}
	for _, info := range third.svc.Store().List() {
		raw, ok := third.svc.Store().ExportRaw(info.Name)
		if !ok {
			t.Fatalf("exported record %s vanished", info.Name)
		}
		if _, _, err := third.svc.Store().ImportEncoded(raw); err != nil {
			t.Fatalf("imported record %s does not round-trip: %v", info.Name, err)
		}
	}
}

// ---- e2e: proxied event stream ---------------------------------------

// TestFleetProxiedEventStream checks a proxied NDJSON stream through a
// non-owner replica relays events live up to and including the terminal
// one.
func TestFleetProxiedEventStream(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	ring := f.replicas[0].node.Ring()
	entry := f.replicas[0]
	entryIdx := ring.Index(entry.addr)
	ownerIdx := (entryIdx + 1) % 3
	_, body := seedOwnedBy(t, ring, ownerIdx, true)

	m, _ := postJob(t, entry, body)
	id, _ := m["id"].(string)
	resp, err := http.Get(entry.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: http %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sawTerminal := false
	for sc.Scan() {
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.State == "done" || ev.State == "failed" {
			sawTerminal = true
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTerminal {
		t.Fatal("proxied stream ended without a terminal event")
	}
}
