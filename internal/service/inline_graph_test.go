package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"github.com/ftspanner/ftspanner/internal/obs"
)

// hostileHeader declares five million isolated vertices in 12 bytes: a
// decoder that believed it would lay out ~120 MB of vertex blocks.
const hostileHeader = "p 5000000 0\n"

// allocBytes reports the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestInlineGraphVertexCap: an inline graph declaring more than
// maxGeneratedSize vertices answers 400 on every path that decodes one —
// job submission, the fleet router's SpecDigest and session creation —
// and is refused before its vertices are allocated.
func TestInlineGraphVertexCap(t *testing.T) {
	s := sessionTestServer(t, Config{Workers: 1})
	job := JobSpec{Graph: hostileHeader, Stretch: 3, Faults: 1}
	body, _ := json.Marshal(job)
	const budget = 4 << 20
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"job", func() error {
			if w := postJSON(t, s, "/v1/jobs", job); w.Code != http.StatusBadRequest {
				return fmt.Errorf("status %d (%s), want 400", w.Code, w.Body)
			}
			return nil
		}},
		{"spec digest", func() error {
			if _, err := SpecDigest(body); err == nil {
				return fmt.Errorf("SpecDigest accepted the header")
			}
			return nil
		}},
		{"session", func() error {
			spec := SessionSpec{Graph: hostileHeader, Stretch: 3, Faults: 1}
			if w := postJSON(t, s, "/v1/sessions", spec); w.Code != http.StatusBadRequest {
				return fmt.Errorf("status %d (%s), want 400", w.Code, w.Body)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if got := allocBytes(func() { err = tc.run() }); got > budget {
				t.Errorf("refusing a %d-byte graph allocated %d bytes, budget %d", len(hostileHeader), got, budget)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	// At the cap itself the graph is accepted.
	at := fmt.Sprintf("p %d 0\n", maxGeneratedSize)
	if _, err := SpecDigest([]byte(fmt.Sprintf(`{"graph":%q,"stretch":3}`, at))); err != nil {
		t.Fatalf("graph at the vertex cap refused: %v", err)
	}
}

// TestAnswersLeadWithID pins the wire layout the fleet's ID prefixing relies
// on: every answer that carries a job or session ID declares it as its first
// field, so a node can rewrite the ID from the body's opening tokens alone.
func TestAnswersLeadWithID(t *testing.T) {
	for _, tc := range []struct {
		answer any
		field  string
	}{
		{submitResponse{}, "id"},
		{statusResponse{}, "id"},
		{spannerResponse{}, "id"},
		{cancelResponse{}, "id"},
		{verifyResponse{}, "job_id"},
		{obs.TraceSnapshot{}, "id"},
		{sessionResponse{}, "id"},
		{sessionDeltasResponse{}, "id"},
		{sessionSpannerResponse{}, "id"},
		{sessionDeleteResponse{}, "id"},
	} {
		t.Run(fmt.Sprintf("%T", tc.answer), func(t *testing.T) {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ") // writeJSON's layout
			if err := enc.Encode(tc.answer); err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(&buf)
			if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
				t.Fatalf("answer opens with %v (%v), want an object", tok, err)
			}
			if tok, err := dec.Token(); err != nil || tok != tc.field {
				t.Fatalf("first field %v (%v), want %q", tok, err, tc.field)
			}
		})
	}
}
