package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/verify"
)

// blockingWriter is a ResponseWriter whose Write blocks until release is
// closed, like a client that stopped reading.
type blockingWriter struct {
	header  http.Header
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockingWriter) Header() http.Header { return b.header }
func (b *blockingWriter) WriteHeader(int)     {}
func (b *blockingWriter) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return len(p), nil
}

// TestSessionSlowReaderDoesNotStallDeltas: a spanner read whose client
// stops reading must not hold the session's lock, so a delta batch on the
// same session still finishes.
func TestSessionSlowReaderDoesNotStallDeltas(t *testing.T) {
	s := sessionTestServer(t, Config{})
	w := postJSON(t, s, "/v1/sessions", map[string]any{"graph": pathGraph(t, 7), "stretch": 3, "faults": 1})
	id := decodeBody[sessionResponse](t, w).ID

	bw := &blockingWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { close(bw.release) }) // runs before the server's Close
	go s.ServeHTTP(bw, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/spanner", nil))
	select {
	case <-bw.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("spanner read never wrote")
	}

	body := []byte(`{"deltas":[{"op":"insert","u":0,"v":3,"weight":1.5}]}`)
	done := make(chan int, 1)
	go func() {
		dw := httptest.NewRecorder()
		s.ServeHTTP(dw, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/deltas", bytes.NewReader(body)))
		done <- dw.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("delta = %d", code)
		}
	case <-time.After(time.Second):
		t.Fatal("delta batch stalled behind a spanner read blocked in Write")
	}
}

// compactingGraph returns a 16-vertex graph with 80 edges on four weight
// levels, enough for the engine to compact once half of them are deleted.
func compactingGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(16)
	for g.NumEdges() < 80 {
		u, v := rng.Intn(16), rng.Intn(16)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, float64(1+rng.Intn(4)))
		}
	}
	return g
}

func encodeGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := g.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// deleteBatch deletes up to k live edges of the session, lowest weight
// first so the repairs run real suffixes.
func deleteBatch(t *testing.T, s *Server, id string, k int) {
	t.Helper()
	g, err := graph.Decode(strings.NewReader(encodeCurrentSessionGraph(t, s, id)))
	if err != nil {
		t.Fatal(err)
	}
	var deltas []map[string]any
	for _, e := range g.EdgesByWeight() {
		if len(deltas) == k {
			break
		}
		deltas = append(deltas, map[string]any{"op": "delete", "u": e.U, "v": e.V})
	}
	if w := postJSON(t, s, "/v1/sessions/"+id+"/deltas", map[string]any{"deltas": deltas}); w.Code != http.StatusOK {
		t.Fatalf("delete batch = %d: %s", w.Code, w.Body.String())
	}
}

// TestSessionSnapshotOutlivesLaterBatches publishes state A, drives the
// session through batches and a compaction, and then requires A's cache
// entry to answer as a clean-room greedy of A would: a job over A is a
// cache hit whose spanner, kept IDs and /verify answer match core.Greedy's,
// and a session created over A seeds from the entry and is digest-identical.
func TestSessionSnapshotOutlivesLaterBatches(t *testing.T) {
	s := sessionTestServer(t, Config{})
	a := compactingGraph()
	w := postJSON(t, s, "/v1/sessions", map[string]any{"graph": encodeGraph(t, a), "stretch": 2, "faults": 1})
	id := decodeBody[sessionResponse](t, w).ID
	deleteBatch(t, s, id, 4)
	textA := encodeCurrentSessionGraph(t, s, id)
	gA, err := graph.Decode(strings.NewReader(textA))
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := s.session(id)
	for i := 0; ; i++ {
		sess.mu.Lock()
		compactions := sess.eng.Stats().Compactions
		sess.mu.Unlock()
		if compactions > 0 {
			break
		}
		if i == 20 {
			t.Fatal("the session never compacted")
		}
		deleteBatch(t, s, id, 4)
	}
	churn := map[string]any{"deltas": []map[string]any{{"op": "insert", "u": 0, "v": 1, "weight": 0.5}}}
	sess.mu.Lock()
	_, live := sess.eng.Graph().LiveBetween(0, 1)
	sess.mu.Unlock()
	if live {
		churn = map[string]any{"deltas": []map[string]any{{"op": "delete", "u": 0, "v": 1}}}
	}
	if w := postJSON(t, s, "/v1/sessions/"+id+"/deltas", churn); w.Code != http.StatusOK {
		t.Fatalf("post-compaction batch = %d: %s", w.Code, w.Body.String())
	}

	want, err := core.Greedy(gA, core.Options{Stretch: 2, Faults: 1, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	jw := postJSON(t, s, "/v1/jobs", map[string]any{"graph": textA, "stretch": 2, "faults": 1})
	job := decodeBody[submitResponse](t, jw)
	if !job.Cached {
		t.Fatalf("job over state A answered %+v, want a cache hit", job)
	}
	st := decodeBody[statusResponse](t, getPath(t, s, "/v1/jobs/"+job.ID))
	if st.SpannerEdges == nil || *st.SpannerEdges != len(want.Kept) {
		t.Fatalf("job status spanner_edges %v, clean-room greedy keeps %d", st.SpannerEdges, len(want.Kept))
	}
	if st.Vertices != gA.NumVertices() || st.InputEdges != gA.NumEdges() {
		t.Fatalf("job status sizes %dv/%de, A has %dv/%de", st.Vertices, st.InputEdges, gA.NumVertices(), gA.NumEdges())
	}
	sp := decodeBody[spannerResponse](t, getPath(t, s, "/v1/jobs/"+job.ID+"/spanner"))
	if sp.Spanner != encodeGraph(t, want.Spanner) {
		t.Fatalf("job spanner\n%s\nclean-room greedy\n%s", sp.Spanner, encodeGraph(t, want.Spanner))
	}
	if fmt.Sprint(sp.Kept) != fmt.Sprint(want.Kept) {
		t.Fatalf("job kept %v, clean-room greedy %v", sp.Kept, want.Kept)
	}
	const trials, seed = 40, 9
	vw := postJSON(t, s, "/v1/verify", map[string]any{"job_id": job.ID, "trials": trials, "seed": seed, "workers": 1})
	got := decodeBody[verifyResponse](t, vw)
	inst, err := verify.NewInstance(gA, want.Spanner, want.Kept)
	if err != nil {
		t.Fatal(err)
	}
	clean := inst.ParallelRandomCheck(2, fault.Vertices, 1, trials, 1, newRand(seed))
	if !got.OK || clean != nil {
		t.Fatalf("/verify ok=%v (%s), clean-room verify %v", got.OK, got.Violation, clean)
	}

	nw := postJSON(t, s, "/v1/sessions", map[string]any{"graph": textA, "stretch": 2, "faults": 1})
	fresh := decodeBody[sessionResponse](t, nw)
	if !fresh.Seeded || fresh.Digest != gA.Digest() {
		t.Fatalf("session over A: seeded=%v digest %s, want seeded from A's entry with digest %s",
			fresh.Seeded, fresh.Digest, gA.Digest())
	}
	fsp := decodeBody[sessionSpannerResponse](t, getPath(t, s, "/v1/sessions/"+fresh.ID+"/spanner"))
	if fsp.Spanner != encodeGraph(t, want.Spanner) {
		t.Fatal("seeded session's spanner differs from the clean-room greedy of A")
	}
}

// TestSessionLazyMaterializeRacesDeltas reads the session's spanner and
// forces published results to materialize through cross-jobs' spanner reads
// and /verify, while another goroutine keeps applying batches to the same
// session.
func TestSessionLazyMaterializeRacesDeltas(t *testing.T) {
	s := sessionTestServer(t, Config{})
	g0 := compactingGraph()
	w := postJSON(t, s, "/v1/sessions", map[string]any{"graph": encodeGraph(t, g0), "stretch": 2, "faults": 1})
	id := decodeBody[sessionResponse](t, w).ID
	v := 1
	for g0.HasEdge(0, v) {
		v++
	}

	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := fmt.Sprintf(`{"op":"insert","u":0,"v":%d,"weight":0.5}`, v)
			if i%2 == 1 {
				op = fmt.Sprintf(`{"op":"delete","u":0,"v":%d}`, v)
			}
			dw := httptest.NewRecorder()
			s.ServeHTTP(dw, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/deltas",
				strings.NewReader(`{"deltas":[`+op+`]}`)))
			if dw.Code != http.StatusOK {
				errc <- fmt.Errorf("batch %d = %d: %s", i, dw.Code, dw.Body.String())
				return
			}
		}
	}()

	hits := 0
	for i := 0; i < 20; i++ {
		// The session read copies the snapshot's cached lines while the
		// batches append to the same arena.
		ssp := decodeBody[sessionSpannerResponse](t, getPath(t, s, "/v1/sessions/"+id+"/spanner"))
		if g, err := graph.Decode(strings.NewReader(ssp.Spanner)); err != nil || g.NumEdges() != len(ssp.Kept) {
			t.Fatalf("session spanner read: %v, %d kept for the text's edges", err, len(ssp.Kept))
		}
		text := encodeCurrentSessionGraph(t, s, id)
		job := decodeBody[submitResponse](t, postJSON(t, s, "/v1/jobs", map[string]any{"graph": text, "stretch": 2, "faults": 1}))
		if !job.Cached {
			continue // a batch landed between the read and the submit
		}
		hits++
		sp := decodeBody[spannerResponse](t, getPath(t, s, "/v1/jobs/"+job.ID+"/spanner"))
		g, err := graph.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Greedy(g, core.Options{Stretch: 2, Faults: 1, Mode: fault.Vertices})
		if err != nil {
			t.Fatal(err)
		}
		if sp.Spanner != encodeGraph(t, want.Spanner) {
			t.Fatalf("cross-job %s spanner differs from the clean-room greedy", job.ID)
		}
		vw := postJSON(t, s, "/v1/verify", map[string]any{"job_id": job.ID, "trials": 4, "seed": i})
		var vr verifyResponse
		if err := json.Unmarshal(vw.Body.Bytes(), &vr); err != nil || !vr.OK {
			t.Fatalf("verify of cross-job %s: %s", job.ID, vw.Body.String())
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("no cross-job hit the cache")
	}
}

// TestSpannerEdgesIsKeptCountEveryAlgorithm: the job status reports
// spanner_edges from the kept count, which must equal the built spanner's
// edge count for every algorithm.
func TestSpannerEdgesIsKeptCountEveryAlgorithm(t *testing.T) {
	s := sessionTestServer(t, Config{})
	text := encodeGraph(t, compactingGraph())
	for _, algo := range []string{AlgoGreedy, AlgoConservative, AlgoUnionEFT, AlgoSamplingVFT} {
		mode := "vertex"
		if algo == AlgoUnionEFT {
			mode = "edge"
		}
		jw := postJSON(t, s, "/v1/jobs", map[string]any{"graph": text, "stretch": 3, "faults": 1, "algorithm": algo, "mode": mode, "seed": 3})
		job := decodeBody[submitResponse](t, jw)
		if job.ID == "" {
			t.Fatalf("%s: submit = %d: %s", algo, jw.Code, jw.Body.String())
		}
		waitJobDone(t, s, job.ID)
		st := decodeBody[statusResponse](t, getPath(t, s, "/v1/jobs/"+job.ID))
		sp := decodeBody[spannerResponse](t, getPath(t, s, "/v1/jobs/"+job.ID+"/spanner"))
		g, err := graph.Decode(strings.NewReader(sp.Spanner))
		if err != nil {
			t.Fatal(err)
		}
		if st.SpannerEdges == nil || *st.SpannerEdges != g.NumEdges() || len(sp.Kept) != g.NumEdges() {
			t.Fatalf("%s: spanner_edges %v, kept %d, spanner has %d edges", algo, st.SpannerEdges, len(sp.Kept), g.NumEdges())
		}
	}
}
