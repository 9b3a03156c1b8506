package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ftspanner/ftspanner/internal/baseline"
	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// ownSpanner runs spec's algorithm on g directly, outside the server, and
// returns the spanner graph it builds and its kept input edge IDs.
func ownSpanner(t *testing.T, spec JobSpec, g *graph.Graph) (*graph.Graph, []int) {
	t.Helper()
	mode, err := parseMode(spec.Mode)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Stretch: spec.Stretch, Faults: spec.Faults, Mode: mode}
	switch spec.Algorithm {
	case AlgoGreedy, AlgoConservative:
		build := core.Greedy
		if spec.Algorithm == AlgoConservative {
			build = core.GreedyConservative
		}
		res, err := build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Spanner, res.Kept
	case AlgoUnionEFT:
		res, err := baseline.UnionEFT(g, spec.Stretch, spec.Faults)
		if err != nil {
			t.Fatal(err)
		}
		return res.Spanner, res.Kept
	case AlgoSamplingVFT:
		res, err := baseline.SamplingVFT(g, samplingK(spec.Stretch), spec.Faults,
			baseline.SamplingVFTOptions{}, newRand(spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Spanner, res.Kept
	}
	t.Fatalf("unknown algorithm %q", spec.Algorithm)
	return nil, nil
}

// spannerResponse is the GET /v1/jobs/{id}/spanner answer's shape, as the
// tests decode it; handleSpanner writes the bytes encoding/json writes for it.
type spannerResponse struct {
	ID string `json:"id"`
	// Spanner is the built subgraph in the Graph.Encode text format.
	Spanner string `json:"spanner"`
	// Kept lists the input edge IDs retained, in spanner edge-ID order.
	Kept []int `json:"kept"`
}

// encodedAnswer is the spanner answer as encoding/json writes it over the
// spanner graph's own Encode text: the bytes the server answered when it
// encoded the answer on every read.
func encodedAnswer(t *testing.T, id string, sp *graph.Graph, kept []int) []byte {
	t.Helper()
	var text strings.Builder
	if err := sp.Encode(&text); err != nil {
		t.Fatal(err)
	}
	if kept == nil {
		kept = []int{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(spannerResponse{ID: id, Spanner: text.String(), Kept: kept}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAnswer reads job id's spanner from s twice and requires both reads
// to equal want byte for byte, then requires /v1/verify to pass the result.
func checkAnswer(t *testing.T, s *Server, id string, want []byte) {
	t.Helper()
	for read := 0; read < 2; read++ {
		w := getPath(t, s, "/v1/jobs/"+id+"/spanner")
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("read %d of %s: http %d, Content-Type %q: %s", read, id, w.Code, w.Header().Get("Content-Type"), w.Body.Bytes())
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("read %d of %s:\n got %.400q\nwant %.400q", read, id, w.Body.Bytes(), want)
		}
	}
	vr := decodeBody[verifyResponse](t, postJSON(t, s, "/v1/verify", verifyRequest{JobID: id, Trials: 16, Seed: 5}))
	if !vr.OK {
		t.Fatalf("verify %s: %s", id, vr.Violation)
	}
}

// submitDone submits spec to s, waits for it, and returns the submit reply.
func submitDone(t *testing.T, s *Server, spec JobSpec) submitResponse {
	t.Helper()
	w := postJSON(t, s, "/v1/jobs", spec)
	if w.Code != http.StatusOK && w.Code != http.StatusAccepted {
		t.Fatalf("submit: http %d: %s", w.Code, w.Body.Bytes())
	}
	sub := decodeBody[submitResponse](t, w)
	waitJob(t, s, sub.ID)
	return sub
}

// answerSpecs are the job specs whose answers TestSpannerAnswerBytes pins:
// every algorithm and mode the service builds, over integral and geometric
// weights, and an edgeless input whose spanner keeps nothing.
func answerSpecs() map[string]JobSpec {
	random := &GeneratorSpec{Name: "random", N: 30, M: 120, Seed: 3}
	geometric := &GeneratorSpec{Name: "geometric", N: 40, Radius: 0.35, Seed: 4}
	return map[string]JobSpec{
		"greedy-vertex":     {Generator: geometric, Stretch: 3, Faults: 1, Mode: "vertex", Algorithm: AlgoGreedy},
		"greedy-edge":       {Generator: random, Stretch: 3, Faults: 2, Mode: "edge", Algorithm: AlgoGreedy},
		"conservative":      {Generator: geometric, Stretch: 2, Faults: 1, Mode: "vertex", Algorithm: AlgoConservative},
		"union-eft":         {Generator: geometric, Stretch: 3, Faults: 1, Mode: "edge", Algorithm: AlgoUnionEFT},
		"sampling-vft-f0":   {Generator: random, Stretch: 3, Faults: 0, Mode: "vertex", Algorithm: AlgoSamplingVFT, Seed: 8},
		"sampling-vft-f1":   {Generator: geometric, Stretch: 3, Faults: 1, Mode: "vertex", Algorithm: AlgoSamplingVFT, Seed: 9},
		"empty-spanner":     {Graph: "p 5 0\n", Stretch: 3, Faults: 1, Mode: "vertex", Algorithm: AlgoGreedy},
		"greedy-inline-int": {Graph: "p 4 5\ne 0 1 1\ne 1 2 1000000\ne 2 3 7\ne 0 3 2\ne 0 2 999999\n", Stretch: 1, Faults: 0, Mode: "vertex", Algorithm: AlgoGreedy},
	}
}

// TestSpannerAnswerBytes pins every job spanner answer to the bytes
// encoding/json writes over the algorithm's own spanner graph: for a build,
// a memory-cache hit, and a store-tier hit after a restart.
func TestSpannerAnswerBytes(t *testing.T) {
	dir := t.TempDir()
	s := sessionTestServer(t, Config{StoreDir: dir})
	want := map[string]func(id string) []byte{}
	for name, spec := range answerSpecs() {
		g, err := materialize(&spec)
		if err != nil {
			t.Fatal(err)
		}
		sp, kept := ownSpanner(t, spec, g)
		if name == "empty-spanner" && len(kept) != 0 {
			t.Fatalf("the empty case keeps %d edges", len(kept))
		}
		want[name] = func(id string) []byte { return encodedAnswer(t, id, sp, kept) }

		sub := submitDone(t, s, spec)
		if sub.Cached {
			t.Fatalf("%s: first submit answered cached", name)
		}
		checkAnswer(t, s, sub.ID, want[name](sub.ID))
		hit := submitDone(t, s, spec)
		if !hit.Cached || hit.FromStore {
			t.Fatalf("%s: resubmit answered %+v, want a memory-cache hit", name, hit)
		}
		checkAnswer(t, s, hit.ID, want[name](hit.ID))
	}
	s.Close()

	restarted := sessionTestServer(t, Config{StoreDir: dir})
	for name, spec := range answerSpecs() {
		sub := submitDone(t, restarted, spec)
		if !sub.FromStore {
			t.Fatalf("%s after a restart answered %+v, want a store-tier hit", name, sub)
		}
		checkAnswer(t, restarted, sub.ID, want[name](sub.ID))
	}
}

// TestSpannerAnswerBytesSessionCrossJob reads a session-published result
// through a job over the session's current graph: the answer must be the
// one a fresh greedy build over that graph encodes.
func TestSpannerAnswerBytesSessionCrossJob(t *testing.T) {
	s := sessionTestServer(t, Config{})
	g, err := materialize(&JobSpec{Generator: &GeneratorSpec{Name: "geometric", N: 30, Radius: 0.4, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := g.Encode(&text); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/sessions", map[string]any{"graph": text.String(), "stretch": 3, "faults": 1})
	if w.Code != http.StatusCreated && w.Code != http.StatusOK {
		t.Fatalf("create session: http %d: %s", w.Code, w.Body.Bytes())
	}
	sid := decodeBody[sessionResponse](t, w).ID
	e0, e1 := g.Edge(0), g.Edge(1)
	batch := map[string]any{"add_vertices": 1, "deltas": []map[string]any{
		{"op": "delete", "u": e0.U, "v": e0.V},
		{"op": "delete", "u": e1.U, "v": e1.V},
		{"op": "insert", "u": 30, "v": 0, "weight": 0.125},
		{"op": "insert", "u": 30, "v": 7, "weight": 0.3},
	}}
	if w := postJSON(t, s, "/v1/sessions/"+sid+"/deltas", batch); w.Code != http.StatusOK {
		t.Fatalf("deltas: http %d: %s", w.Code, w.Body.Bytes())
	}
	current := encodeCurrentSessionGraph(t, s, sid)
	spec := JobSpec{Graph: current, Stretch: 3, Faults: 1, Mode: "vertex", Algorithm: AlgoGreedy}
	sub := submitDone(t, s, spec)
	if !sub.Cached {
		t.Fatalf("cross-job answered %+v, want the session's published result", sub)
	}
	job, _ := s.job(sub.ID)
	if job.result.snap == nil {
		t.Fatal("the cross-job's result is not the session's snapshot")
	}
	cur, err := graph.DecodeString(current, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, kept := ownSpanner(t, spec, cur)
	checkAnswer(t, s, sub.ID, encodedAnswer(t, sub.ID, sp, kept))
}

// graphsReachable returns the distinct *graph.Graph values reachable from v
// through pointers, structs, slices, arrays, maps and interfaces, without
// looking inside a graph.
func graphsReachable(v reflect.Value, seen map[uintptr]bool, out map[*graph.Graph]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		if v.Type() == reflect.TypeOf((*graph.Graph)(nil)) {
			out[(*graph.Graph)(v.UnsafePointer())] = true
			return
		}
		graphsReachable(v.Elem(), seen, out)
	case reflect.Interface:
		if !v.IsNil() {
			graphsReachable(v.Elem(), seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			graphsReachable(v.Field(i), seen, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			graphsReachable(v.Index(i), seen, out)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			graphsReachable(it.Key(), seen, out)
			graphsReachable(it.Value(), seen, out)
		}
	}
}

// TestResultsHoldNoSpannerGraph walks built and stored results after every
// read that used to pin a spanner graph (the spanner answer, /v1/verify,
// the persist): the only graph either holds is its input.
func TestResultsHoldNoSpannerGraph(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Generator: &GeneratorSpec{Name: "random", N: 30, M: 120, Seed: 21}, Stretch: 3, Faults: 1}
	check := func(s *Server, fromStore bool) {
		t.Helper()
		sub := submitDone(t, s, spec)
		if sub.FromStore != fromStore {
			t.Fatalf("submit answered %+v, want from_store %v", sub, fromStore)
		}
		job, _ := s.job(sub.ID)
		res := job.result
		if res.snap != nil {
			t.Fatal("a built or stored result carries a snapshot")
		}
		getPath(t, s, "/v1/jobs/"+sub.ID+"/spanner")
		postJSON(t, s, "/v1/verify", verifyRequest{JobID: sub.ID, Trials: 4})
		got := map[*graph.Graph]bool{}
		graphsReachable(reflect.ValueOf(res), map[uintptr]bool{}, got)
		if len(got) != 1 || !got[res.input] {
			t.Fatalf("result holds %d graphs, want only its input", len(got))
		}
	}
	s := sessionTestServer(t, Config{StoreDir: dir})
	check(s, false)
	s.Close()
	check(sessionTestServer(t, Config{StoreDir: dir}), true)
}

// TestDoneJobResubmitsAsCacheHit submits 200 fresh specs, waits for each
// job's done event, and resubmits it: a job that is done has its result in
// the memory cache, so the resubmission is a cache hit, never a dedup onto
// the finished job. The store makes the window between done and the
// release of the dedup key (the persist) wide.
func TestDoneJobResubmitsAsCacheHit(t *testing.T) {
	s := sessionTestServer(t, Config{StoreDir: t.TempDir()})
	for i := 0; i < 200; i++ {
		spec := JobSpec{Generator: &GeneratorSpec{Name: "random", N: 12, M: 24, Seed: int64(i)}, Stretch: 3, Faults: 1}
		first := decodeBody[submitResponse](t, postJSON(t, s, "/v1/jobs", spec))
		events := getPath(t, s, "/v1/jobs/"+first.ID+"/events").Body.String()
		if !strings.Contains(events, `"state":"done"`) {
			t.Fatalf("loop %d: job %s events end without done: %s", i, first.ID, events)
		}
		again := decodeBody[submitResponse](t, postJSON(t, s, "/v1/jobs", spec))
		if !again.Cached || again.Deduplicated || again.ID == first.ID {
			t.Fatalf("loop %d: resubmit after done answered %+v, want a cache hit", i, again)
		}
	}
}

// TestSpannerAnswerConcurrentReads has many readers take a fresh result's
// first answer at once: the encoding is made once and every reader gets
// the same bytes.
func TestSpannerAnswerConcurrentReads(t *testing.T) {
	s := sessionTestServer(t, Config{})
	spec := JobSpec{Generator: &GeneratorSpec{Name: "geometric", N: 40, Radius: 0.3, Seed: 2}, Stretch: 3, Faults: 1}
	sub := submitDone(t, s, spec)
	var wg sync.WaitGroup
	answers := make([][]byte, 8)
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = getPath(t, s, "/v1/jobs/"+sub.ID+"/spanner").Body.Bytes()
		}()
	}
	wg.Wait()
	for i, a := range answers {
		if !bytes.Equal(a, answers[0]) {
			t.Fatalf("reader %d got other bytes: %q vs %q", i, a, answers[0])
		}
	}
}

// sessionSpannerResponse is the GET /v1/sessions/{id}/spanner answer's
// shape, as the tests decode it; handleSessionSpanner writes the bytes
// json.NewEncoder writes for it.
type sessionSpannerResponse struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	// Spanner is the current spanner in the Graph.Encode text format; Kept
	// lists the same edges by endpoints and weight in scan order.
	Spanner string        `json:"spanner"`
	Kept    []SessionEdge `json:"kept"`
}

// FuzzJSONFloat: appendJSONFloat writes every finite float64 as
// json.Marshal does.
func FuzzJSONFloat(f *testing.F) {
	for _, x := range []float64{5e-324, 1e-7, 1e-6, 0.5, 999999, 1e6, 1e6 + 0.5, 1 << 53, 1e20, 1e21,
		math.MaxFloat64, math.Copysign(0, -1)} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return // encoding/json refuses them, and no weight is one
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte(`"w":`), x); string(got) != `"w":`+string(want) {
			t.Fatalf("%v (bits %#x): got %s, want %s", x, bits, got[4:], want)
		}
	})
}

// FuzzJSONText: appendJSONText quotes any string, valid UTF-8 or not, as
// json.Marshal does, from a string and from bytes alike.
func FuzzJSONText(f *testing.F) {
	for _, s := range []string{"", "p 3 2\ne 0 1 1\ne 1 2 1e+06\n", "p1~s12", "<a href=\"x\">&amp;</a>",
		"\\\b\f\n\r\t\x00\x1f\x7f", "h\u00e9llo \u2028\u2029 \U0001f600", "\xff\xe2\x82 \xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONText([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("%q: got %s, want %s", s, got[1:], want)
		}
		if got := appendJSONText(nil, []byte(s)); string(got) != string(want) {
			t.Fatalf("%q as bytes: got %s, want %s", s, got, want)
		}
	})
}

// sessionAnswer is the session spanner answer json.NewEncoder writes over
// a fresh greedy build of the session's current graph.
func sessionAnswer(t *testing.T, s *Server, id string, stretch float64, faults int) []byte {
	t.Helper()
	g, err := graph.DecodeString(encodeCurrentSessionGraph(t, s, id), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := ownSpanner(t, JobSpec{Stretch: stretch, Faults: faults, Mode: "vertex", Algorithm: AlgoGreedy}, g)
	var text strings.Builder
	if err := sp.Encode(&text); err != nil {
		t.Fatal(err)
	}
	edges := make([]SessionEdge, 0, sp.NumEdges())
	for _, e := range sp.Edges() {
		edges = append(edges, SessionEdge{U: e.U, V: e.V, Weight: e.Weight})
	}
	var buf bytes.Buffer
	ans := sessionSpannerResponse{ID: id, Digest: g.Digest(), Spanner: text.String(), Kept: edges}
	if err := json.NewEncoder(&buf).Encode(ans); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSessionAnswer reads session id's spanner twice and requires both
// reads to equal the reference answer byte for byte.
func checkSessionAnswer(t *testing.T, s *Server, id string, stretch float64, faults int) []byte {
	t.Helper()
	want := sessionAnswer(t, s, id, stretch, faults)
	for read := 0; read < 2; read++ {
		w := getPath(t, s, "/v1/sessions/"+id+"/spanner")
		h := w.Header()
		if w.Code != http.StatusOK || h.Get("Content-Type") != "application/json" ||
			h.Get("Content-Length") != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("read %d of %s: http %d, headers %v: %.200s", read, id, w.Code, h, w.Body.Bytes())
		}
		if got := w.Body.Bytes(); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			from := max(0, i-60)
			t.Fatalf("read %d of %s differs at byte %d:\n got %.120q\nwant %.120q", read, id, i, got[from:], want[from:])
		}
	}
	return want
}

// TestSessionAnswerBytes pins the session spanner answer to the bytes
// json.NewEncoder writes for the reference shape over a fresh greedy build:
// on unit, integer-level, geometric and extreme weights, for an empty
// session, and after batches that compact the session's graph.
func TestSessionAnswerBytes(t *testing.T) {
	s := sessionTestServer(t, Config{})
	create := func(t *testing.T, body map[string]any) string {
		t.Helper()
		w := postJSON(t, s, "/v1/sessions", body)
		if w.Code != http.StatusCreated && w.Code != http.StatusOK {
			t.Fatalf("create session: http %d: %s", w.Code, w.Body.Bytes())
		}
		return decodeBody[sessionResponse](t, w).ID
	}
	generated := func(gs GeneratorSpec) *graph.Graph {
		g, err := materialize(&JobSpec{Generator: &gs})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rng := rand.New(rand.NewSource(12))
	levels := graph.New(60)
	for _, e := range generated(GeneratorSpec{Name: "random", N: 60, M: 400, Seed: 12}).Edges() {
		levels.MustAddEdge(e.U, e.V, float64(1+rng.Intn(12)))
	}
	extremes := []float64{1e-300, 1e300, 5e-324, 1e-7, 2.5e-8, 0.1, 123456.789, 999999, 1e6, 1 << 53, 1e20, 1e21,
		math.MaxFloat64 / 8}
	extreme := graph.New(14)
	for u := 0; u < 14; u++ {
		for v := u + 1; v < 14; v += 1 + u%3 {
			extreme.MustAddEdge(u, v, extremes[extreme.NumEdges()%len(extremes)])
		}
	}
	answers := map[string][]byte{}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"unit", generated(GeneratorSpec{Name: "random", N: 50, M: 300, Seed: 11})},
		{"12 levels", levels},
		{"geometric", generated(GeneratorSpec{Name: "geometric", N: 50, Radius: 0.3, Seed: 13})},
		{"extreme", extreme},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := create(t, map[string]any{"graph": encodeGraph(t, tc.g), "stretch": 3, "faults": 1})
			checkSessionAnswer(t, s, id, 3, 1)
			batch := map[string]any{"add_vertices": 1, "deltas": []map[string]any{
				{"op": "insert", "u": tc.g.NumVertices(), "v": 0, "weight": 0.3},
				{"op": "delete", "u": tc.g.Edge(0).U, "v": tc.g.Edge(0).V},
			}}
			if w := postJSON(t, s, "/v1/sessions/"+id+"/deltas", batch); w.Code != http.StatusOK {
				t.Fatalf("deltas: http %d: %s", w.Code, w.Body.Bytes())
			}
			answers[id] = checkSessionAnswer(t, s, id, 3, 1)
		})
	}

	// Readers of sessions of different sizes share the answer buffers.
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					for id, want := range answers {
						if got := getPath(t, s, "/v1/sessions/"+id+"/spanner").Body.Bytes(); !bytes.Equal(got, want) {
							t.Errorf("concurrent read of %s: got %.200q", id, got)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})

	t.Run("empty", func(t *testing.T) {
		id := create(t, map[string]any{"vertices": 5, "stretch": 3, "faults": 1})
		if got := checkSessionAnswer(t, s, id, 3, 1); !bytes.HasSuffix(got, []byte(`,"kept":[]}`+"\n")) {
			t.Fatalf("empty session answered %s", got)
		}
	})

	t.Run("compacted", func(t *testing.T) {
		id := create(t, map[string]any{"graph": encodeGraph(t, compactingGraph()), "stretch": 2, "faults": 1})
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
		checkSessionAnswer(t, s, id, 2, 1)
	})
}
