package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/ftspanner/ftspanner/internal/service"
)

// TestBodyLimitStatuses: every handler that reads a body reads it through
// the service's one helper, so a body over MaxBodyBytes answers 413 whether
// it is sent with its length, sent without one, or only declared, and
// malformed JSON of the bound's size answers 400 — on a single node, at a
// fleet entry and on a forwarded hop alike. A declared length of 1 GiB is
// refused before any buffer of that size is allocated.
func TestBodyLimitStatuses(t *testing.T) {
	const limit = 1024
	newService := func() *service.Server {
		svc, err := service.New(service.Config{Workers: 1, MaxBodyBytes: limit})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	single := newService()
	node, err := New(Config{Self: "solo:1", Peers: []string{"solo:1"}, Local: newService()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)

	// Each target holds session s1, so the deltas endpoint reaches its body.
	session := `{"graph":"p 3 2\ne 0 1 1\ne 1 2 1\n","stretch":3,"faults":1}`
	for _, h := range []http.Handler{single, node} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(session)))
		if w.Code != http.StatusCreated || !strings.Contains(w.Body.String(), `"id":"s1"`) {
			t.Fatalf("session create: %d %s", w.Code, w.Body)
		}
	}

	targets := []struct {
		name      string
		h         http.Handler
		forwarded bool
	}{
		{"single node", single, false},
		{"fleet entry", node, false},
		{"forwarded hop", node, true},
	}
	endpoints := []string{"/v1/jobs", "/v1/verify", "/v1/sessions", "/v1/sessions/s1/deltas"}
	oversized := `{"graph":"` + strings.Repeat("x", 4<<10) + `"}`
	// Malformed JSON padded to exactly the bound: read whole, then refused
	// by the decoder.
	malformed := `{"stretch":` + strings.Repeat(" ", limit-len(`{"stretch":`))
	bodies := []struct {
		name     string
		body     string
		declared int64 // Content-Length to declare: 0 keeps the body's own, -1 sends none
		want     int
	}{
		{"4 KB body", oversized, 0, http.StatusRequestEntityTooLarge},
		{"4 KB body of unknown length", oversized, -1, http.StatusRequestEntityTooLarge},
		{"1 GiB declared, short body", `{}`, 1 << 30, http.StatusRequestEntityTooLarge},
		{"malformed JSON at the bound", malformed, 0, http.StatusBadRequest},
		{"malformed JSON at the bound, unknown length", malformed, -1, http.StatusBadRequest},
	}
	for _, tg := range targets {
		for _, ep := range endpoints {
			for _, b := range bodies {
				req := httptest.NewRequest(http.MethodPost, ep, bytes.NewReader([]byte(b.body)))
				if b.declared != 0 {
					req.ContentLength = b.declared
				}
				if tg.forwarded {
					req.Header.Set(forwardedHeader, "peer:1")
				}
				w := httptest.NewRecorder()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tg.h.ServeHTTP(w, req)
				runtime.ReadMemStats(&after)
				if w.Code != b.want {
					t.Errorf("%s POST %s, %s: status %d (%s), want %d",
						tg.name, ep, b.name, w.Code, strings.TrimSpace(w.Body.String()), b.want)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
					t.Errorf("%s POST %s, %s: allocated %d bytes", tg.name, ep, b.name, grew)
				}
			}
		}
	}
}
