package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/ftspanner/ftspanner/internal/service"
)

// soloNode is a one-replica fleet: a worker node whose ring holds only
// itself, so every submit it routes lands on its own service. No listener
// is needed: a node polls its own summary in process.
func soloNode(t *testing.T) (*Node, *service.Server) {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Self: "solo:1", Peers: []string{"solo:1"}, Local: svc})
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		svc.Close()
	})
	return n, svc
}

// submitVia posts body to h, marked as forwarded when owner is set (the
// owner hop), and returns the status code and the answer's job ID.
func submitVia(h http.Handler, body []byte, owner bool) (int, string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if owner {
		req.Header.Set(forwardedHeader, "peer:1")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var sub struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(w.Body.Bytes(), &sub)
	return w.Code, sub.ID
}

// TestRoutedSubmitResolvesOnce: a node resolves a body it routes to itself
// once, through its service's memo, and submits from that resolution — one
// cold routed submit is one memo miss and no hit.
func TestRoutedSubmitResolvesOnce(t *testing.T) {
	n, svc := soloNode(t)
	if code, id := submitVia(n, specBody(3), false); id == "" {
		t.Fatalf("routed submit: status %d, no job", code)
	}
	if m := svc.Metrics(); m.SpecMemoHits != 0 || m.SpecMemoMisses != 1 {
		t.Fatalf("after one cold routed submit: spec_memo_hits=%d spec_memo_misses=%d, want 0 and 1",
			m.SpecMemoHits, m.SpecMemoMisses)
	}
	if got := n.Metrics().RoutedLocalTotal; got != 1 {
		t.Fatalf("cluster_routed_local_total=%d after one self-owned submit, want 1", got)
	}
}

// TestNodeSharesSpecMemo: a node outside the ring (a pure router) still
// resolves bodies through its own service's memo, so a repeated body costs
// one hash before it is forwarded.
func TestNodeSharesSpecMemo(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	router, err := New(Config{Self: "router:1", Peers: []string{"127.0.0.1:1"}, Local: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for try := 0; try < 2; try++ {
		// The one peer is unreachable: the router resolves the body, then
		// fails to forward it.
		if code, _ := submitVia(router, specBody(3), false); code != http.StatusBadGateway {
			t.Fatalf("pure router submit to a dead peer: status %d, want 502", code)
		}
	}
	if m := svc.Metrics(); m.SpecMemoHits != 1 || m.SpecMemoMisses != 1 {
		t.Fatalf("pure router memo: spec_memo_hits=%d spec_memo_misses=%d, want 1 and 1",
			m.SpecMemoHits, m.SpecMemoMisses)
	}
	if m := svc.Metrics(); m.JobsSubmitted != 0 {
		t.Fatalf("pure router's service took %d jobs, want 0", m.JobsSubmitted)
	}
}

// TestSpecMemoConcurrentRouterOwner submits overlapping bodies from router
// goroutines (the node's routing path, which resolves the body and hands
// the resolution to its own service) and owner goroutines (forwarded
// submits the service reads and resolves itself), all through the one memo
// they share. Run under -race it fails on any unsynchronized access to the
// memo's LRU; every submit must be accepted, and the memo must count one
// lookup per submit.
func TestSpecMemoConcurrentRouterOwner(t *testing.T) {
	n, svc := soloNode(t)
	const bodies, rounds, perRole = 8, 6, 3
	var wg sync.WaitGroup
	errs := make(chan string, 2*perRole*rounds*bodies)
	for g := 0; g < 2*perRole; g++ {
		owner := g%2 == 1
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*bodies; i++ {
				body := specBody(int64(1 + (i+g)%bodies))
				if code, id := submitVia(n, body, owner); (code != http.StatusOK && code != http.StatusAccepted) || id == "" {
					errs <- http.StatusText(code)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("submit failed: %s", e)
	}
	// A routed submit and a forwarded one each look their body up once.
	m := svc.Metrics()
	if want := int64(2 * perRole * rounds * bodies); m.SpecMemoHits+m.SpecMemoMisses != want {
		t.Fatalf("memo counted %d hits + %d misses, want %d lookups", m.SpecMemoHits, m.SpecMemoMisses, want)
	}
	if m.SpecMemoMisses < bodies {
		t.Fatalf("memo counted %d misses for %d distinct bodies", m.SpecMemoMisses, bodies)
	}
}
