package service

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/gen"
)

// TestSweepDoesNotStallSessions holds session A's lock, as a running delta
// batch does, and requires both a retention sweep and a lookup of session B
// to return within a second. The sweep reads each session's retention
// clock without the session's lock, so neither waits on A's batch. A short
// job retention keeps the janitor sweeping every 10ms meanwhile.
func TestSweepDoesNotStallSessions(t *testing.T) {
	s := sessionTestServer(t, Config{JobRetention: 40 * time.Millisecond, SessionRetention: time.Hour})
	var ids []string
	for i := 0; i < 2; i++ {
		w := postJSON(t, s, "/v1/sessions", map[string]any{"stretch": 2, "vertices": 2})
		if w.Code != http.StatusCreated {
			t.Fatalf("create %d = %d: %s", i, w.Code, w.Body.String())
		}
		ids = append(ids, decodeBody[sessionResponse](t, w).ID)
	}
	a, _ := s.session(ids[0])
	a.mu.Lock()
	unlock := sync.OnceFunc(a.mu.Unlock)
	defer unlock()
	time.Sleep(50 * time.Millisecond) // janitor ticks run into the held lock

	done := make(chan bool)
	go func() {
		s.sweepExpired(time.Now())
		_, ok := s.session(ids[1])
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatalf("session %s gone after a sweep inside its retention", ids[1])
		}
	case <-time.After(time.Second):
		t.Fatal("sweep or session lookup stalled behind another session's lock")
	}
}

// TestSessionCapRefusesBeforeBuild fills the session cap and then creates a
// session over a graph whose build queries the fault oracle: the 429 must
// come before the build, so the oracle query count does not move.
func TestSessionCapRefusesBeforeBuild(t *testing.T) {
	s := sessionTestServer(t, Config{MaxSessions: 1})
	if w := postJSON(t, s, "/v1/sessions", map[string]any{"stretch": 2}); w.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}
	g, err := gen.GNM(60, 400, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.Encode(&sb); err != nil {
		t.Fatal(err)
	}

	before := s.Metrics().Latency.OracleQuery.Count
	w := postJSON(t, s, "/v1/sessions", map[string]any{"graph": sb.String(), "stretch": 3, "faults": 1})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap create = %d, want 429: %s", w.Code, w.Body.String())
	}
	if after := s.Metrics().Latency.OracleQuery.Count; after != before {
		t.Fatalf("over-cap create ran the build: oracle_query count %d -> %d", before, after)
	}
}
