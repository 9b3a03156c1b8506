package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ftspanner/ftspanner"
	"github.com/ftspanner/ftspanner/internal/service"
)

// sessionReadBench measures the SessionRead case: one op serves GET
// /v1/sessions/{id}/spanner for a session over the session fixture (k = 3,
// f = 2, vertex faults) through the service's ServeHTTP into a recorder,
// so ns/op and allocs_per_op are the read path's own cost with no network
// or client around it. Before timing, the answer's spanner text must hash
// to the spanner digest of a greedy build over the fixture and its kept
// list must have that build's size; spanner_digest records that digest.
func sessionReadBench(out io.Writer) (componentBench, error) {
	g, _, _, err := sessionFixture()
	if err != nil {
		return componentBench{}, err
	}
	res, err := ftspanner.Build(g, ftspanner.Options{Stretch: 3, Faults: 2, Mode: ftspanner.VertexFaults})
	if err != nil {
		return componentBench{}, err
	}
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return componentBench{}, err
	}
	defer svc.Close()

	var text strings.Builder
	if err := g.Encode(&text); err != nil {
		return componentBench{}, err
	}
	spec, err := json.Marshal(service.SessionSpec{Graph: text.String(), Stretch: 3, Faults: 2})
	if err != nil {
		return componentBench{}, err
	}
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(spec)))
	var created struct{ ID string }
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
		return componentBench{}, fmt.Errorf("benchjson: SessionRead: create session: http %d: %s", w.Code, w.Body.Bytes())
	}

	// One request serves every op: the mux only sets its route fields.
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+created.ID+"/spanner", nil)
	read := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, req)
		return w
	}
	first := read()
	var answer struct {
		Spanner string            `json:"spanner"`
		Kept    []json.RawMessage `json:"kept"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &answer); err != nil || first.Code != http.StatusOK {
		return componentBench{}, fmt.Errorf("benchjson: SessionRead: read: http %d: %v", first.Code, err)
	}
	sum := sha256.Sum256([]byte(answer.Spanner))
	digest := hex.EncodeToString(sum[:])
	if want := res.Spanner.Digest(); digest != want || len(answer.Kept) != len(res.Kept) {
		return componentBench{}, fmt.Errorf("benchjson: SessionRead: answer spanner digest %s with %d kept, want %s with %d",
			digest, len(answer.Kept), want, len(res.Kept))
	}

	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if w := read(); w.Code != http.StatusOK {
				b.Fatalf("read: http %d", w.Code)
			}
		}
	})
	entry := componentBench{
		Name:          "SessionRead",
		NsPerOp:       float64(br.NsPerOp()),
		AllocsPerOp:   br.AllocsPerOp(),
		BytesPerOp:    br.AllocedBytesPerOp(),
		KeptEdges:     len(res.Kept),
		SpannerDigest: digest,
	}
	fmt.Fprintf(out, "%-24s %12.0f ns/op %8d allocs/op %10d B/op  bytes=%d kept=%d\n",
		entry.Name, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp, first.Body.Len(), entry.KeptEdges)
	return entry, nil
}
