package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// mustNew builds a Server, failing the test on a config/store error.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON performs one request with a JSON body and decodes the JSON reply
// into out (unless nil).
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding reply: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// submitJob submits spec and fails the test on a non-2xx reply.
func submitJob(t *testing.T, ts *httptest.Server, spec JobSpec) submitResponse {
	t.Helper()
	var resp submitResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &resp)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit returned %d", code)
	}
	return resp
}

// waitState polls the job until it reaches want (fatal on a different
// terminal state or timeout).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) statusResponse {
	t.Helper()
	// Generous: second-long builds timeshared on one core under -race can
	// near a minute of wall clock.
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st statusResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status %s returned %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	var m MetricsSnapshot
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	return m
}

// smallSpec is a fast deterministic build used where the job's content does
// not matter.
func smallSpec(seed int64) JobSpec {
	return JobSpec{
		Generator: &GeneratorSpec{Name: "random", N: 30, M: 150, Seed: seed},
		Stretch:   3,
		Faults:    1,
	}
}

// slowSpec is a build long enough (about 300ms on a 2-CPU x86-64 box) to
// observe and cancel mid-run. Each speed-up of the keep test has shrunk it,
// so it is re-measured when the search gets cheaper.
func slowSpec(seed int64) JobSpec {
	return JobSpec{
		Generator: &GeneratorSpec{Name: "random", N: 500, M: 30000, Seed: seed},
		Stretch:   3,
		Faults:    3,
	}
}

func TestSubmitPollFetchVerify(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Inline input: the complete graph K12 in Encode format.
	g := gen.Complete(12)
	var sb strings.Builder
	if err := g.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	sub := submitJob(t, ts, JobSpec{Graph: sb.String(), Stretch: 3, Faults: 1, Mode: "vertex"})
	if sub.Cached || sub.Deduplicated {
		t.Fatalf("fresh submission reported cached=%v deduplicated=%v", sub.Cached, sub.Deduplicated)
	}

	st := waitState(t, ts, sub.ID, StateDone)
	if st.Vertices != 12 || st.InputEdges != g.NumEdges() {
		t.Errorf("status reports %d vertices / %d edges, want 12 / %d", st.Vertices, st.InputEdges, g.NumEdges())
	}
	if st.GraphDigest != g.Digest() {
		t.Errorf("status digest %q != input digest %q", st.GraphDigest, g.Digest())
	}
	if st.Stats == nil || st.Stats.Dijkstras == 0 || st.Stats.EdgesScanned != g.NumEdges() {
		t.Errorf("missing or implausible stats: %+v", st.Stats)
	}

	var sp spannerResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/spanner", nil, &sp); code != http.StatusOK {
		t.Fatalf("spanner fetch returned %d", code)
	}
	h, err := graph.Decode(strings.NewReader(sp.Spanner))
	if err != nil {
		t.Fatalf("returned spanner does not decode: %v", err)
	}
	if h.NumEdges() != len(sp.Kept) || h.NumEdges() != *st.SpannerEdges {
		t.Errorf("spanner has %d edges, kept lists %d, status says %d", h.NumEdges(), len(sp.Kept), *st.SpannerEdges)
	}
	for i, id := range sp.Kept {
		he, ge := h.Edge(i), g.Edge(id)
		hu, hv := he.Endpoints()
		gu, gv := ge.Endpoints()
		if hu != gu || hv != gv || he.Weight != ge.Weight {
			t.Fatalf("spanner edge %d = (%d,%d) does not match input edge %d = (%d,%d)", i, hu, hv, id, gu, gv)
		}
	}

	var vr verifyResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/verify",
		verifyRequest{JobID: sub.ID, Trials: 25, Seed: 7}, &vr); code != http.StatusOK {
		t.Fatalf("verify returned %d", code)
	}
	if !vr.OK || vr.Trials != 25 {
		t.Errorf("verify reply %+v, want ok over 25 trials", vr)
	}

	m := getMetrics(t, ts)
	if m.BuildsTotal != 1 || m.CacheMisses != 1 || m.JobsByState[StateDone] != 1 || m.Dijkstras == 0 {
		t.Errorf("unexpected metrics after one build: %+v", m)
	}
}

func TestCacheHitSkipsRecompute(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	first := submitJob(t, ts, smallSpec(5))
	waitState(t, ts, first.ID, StateDone)

	// Same spec, different (ignored) seed field ordering: must be a cache
	// hit, already done, with no second build.
	second := submitJob(t, ts, smallSpec(5))
	if second.ID == first.ID {
		t.Fatal("cache hit reused the original job ID instead of minting a new job")
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("duplicate submission got cached=%v state=%s, want a done cache hit", second.Cached, second.State)
	}

	var spa, spb spannerResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+first.ID+"/spanner", nil, &spa)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+second.ID+"/spanner", nil, &spb)
	if spa.Spanner != spb.Spanner || fmt.Sprint(spa.Kept) != fmt.Sprint(spb.Kept) {
		t.Error("cached result differs from the original build")
	}

	m := getMetrics(t, ts)
	if m.BuildsTotal != 1 {
		t.Errorf("builds_total=%d after a duplicate submission, want 1", m.BuildsTotal)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CacheEntries != 1 {
		t.Errorf("cache counters %+v, want one hit, one miss, one entry", m)
	}
	if m.CacheHitRatio != 0.5 {
		t.Errorf("cache_hit_ratio=%v, want 0.5", m.CacheHitRatio)
	}
	// The resubmitted body is byte-identical, so it resolved from the spec
	// memo without a decode.
	if m.SpecMemoHits != 1 || m.SpecMemoMisses != 1 {
		t.Errorf("spec_memo_hits=%d spec_memo_misses=%d, want 1 and 1", m.SpecMemoHits, m.SpecMemoMisses)
	}
}

// TestEightConcurrentBuilds demonstrates the acceptance criterion: eight
// distinct jobs simultaneously occupying the slots of an eight-worker
// pool, witnessed by the max_concurrent_builds high-water mark.
func TestEightConcurrentBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second concurrency soak skipped in -short mode")
	}
	const n = 8
	// Every build holds at its first oracle query until all eight are in
	// flight, so the overlap does not depend on how long a build takes.
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: n, Chaos: func(site string) {
		if site == core.ChaosSiteOracle {
			<-release
		}
	}})

	// Distinct seeds make distinct graphs, so no dedup or caching.
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitJob(t, ts, smallSpec(int64(100+i))).ID
	}
	deadline := time.Now().Add(60 * time.Second)
	for getMetrics(t, ts).BuildsInFlight != n {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("builds_in_flight never reached %d", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}

	m := getMetrics(t, ts)
	if m.MaxConcurrentBuilds != n {
		t.Errorf("max_concurrent_builds=%d, want %d simultaneous builds", m.MaxConcurrentBuilds, n)
	}
	if m.BuildsTotal != n || m.JobsByState[StateDone] != n || m.BuildsInFlight != 0 {
		t.Errorf("metrics after %d concurrent builds: %+v", n, m)
	}
}

func TestCancelRunningJobFreesWorkerSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	victim := submitJob(t, ts, slowSpec(1))
	waitState(t, ts, victim.ID, StateRunning)

	var cr cancelResponse
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil, &cr); code != http.StatusAccepted {
		t.Fatalf("cancel returned %d", code)
	}
	waitState(t, ts, victim.ID, StateCancelled)

	// The single worker slot must be free again: a small follow-up job has
	// to complete, long before the cancelled build would have.
	follower := submitJob(t, ts, smallSpec(2))
	waitState(t, ts, follower.ID, StateDone)

	m := getMetrics(t, ts)
	if m.JobsByState[StateCancelled] != 1 || m.JobsByState[StateDone] != 1 {
		t.Errorf("metrics after cancel+rerun: %+v", m.JobsByState)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	blocker := submitJob(t, ts, slowSpec(3))
	waitState(t, ts, blocker.ID, StateRunning)
	queued := submitJob(t, ts, smallSpec(4))

	var cr cancelResponse
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, &cr)
	if cr.State != StateCancelled {
		t.Fatalf("queued job cancel reported %s, want immediate %s", cr.State, StateCancelled)
	}
	waitState(t, ts, queued.ID, StateCancelled)
	if m := getMetrics(t, ts); m.QueueDepth != 0 {
		t.Errorf("queue_depth=%d after cancelling the only queued job, want 0", m.QueueDepth)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil, nil)
	waitState(t, ts, blocker.ID, StateCancelled)
}

func TestQueueFullRejectsWith503(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	running := submitJob(t, ts, slowSpec(5))
	waitState(t, ts, running.ID, StateRunning)
	queued := submitJob(t, ts, smallSpec(6)) // fills the one queue slot

	body, err := json.Marshal(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	err = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission returned %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(eb.Error, "queue full") {
		t.Errorf("overflow error %q does not mention the queue", eb.Error)
	}
	// One queued job on one worker: back in about a second.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("overflow Retry-After %q, want 2", ra)
	}

	// Cancelling the queued job must free its slot immediately: the same
	// overflow submission is now accepted instead of 503.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, nil)
	retry := submitJob(t, ts, smallSpec(7))
	if retry.State != StateQueued {
		t.Errorf("post-cancel resubmission got state %s, want queued", retry.State)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+retry.ID, nil, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil, nil)
}

func TestInFlightDuplicateCoalesces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	a := submitJob(t, ts, slowSpec(8))
	b := submitJob(t, ts, slowSpec(8))
	if b.ID != a.ID || !b.Deduplicated {
		t.Fatalf("duplicate in-flight submission got id=%s dedup=%v, want coalescing onto %s", b.ID, b.Deduplicated, a.ID)
	}
	m := getMetrics(t, ts)
	if m.Deduplicated != 1 {
		t.Errorf("deduplicated=%d, want 1", m.Deduplicated)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil, nil)
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	sub := submitJob(t, ts, JobSpec{
		Generator: &GeneratorSpec{Name: "random", N: 100, M: 2000, Seed: 9},
		Stretch:   3,
		Faults:    2,
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 3 {
		t.Fatalf("only %d events; want queued, progress, done", len(events))
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[0].State != StateQueued {
		t.Errorf("first event state %s, want queued", events[0].State)
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Scanned != 2000 || last.Kept == 0 {
		t.Errorf("final event %+v, want done with full scan counts", last)
	}
	progress := 0
	for _, e := range events[1 : len(events)-1] {
		if e.State == StateRunning && e.Scanned > 0 {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no mid-run progress events with scanned > 0")
	}
}

func TestAllAlgorithmsBuildAndVerify(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	gspec := &GeneratorSpec{Name: "random", N: 24, M: 100, Seed: 11}
	for _, tc := range []struct {
		algo string
		mode string
	}{
		{AlgoGreedy, "vertex"},
		{AlgoConservative, "edge"},
		{AlgoUnionEFT, "edge"},
		{AlgoSamplingVFT, "vertex"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			sub := submitJob(t, ts, JobSpec{
				Generator: gspec, Stretch: 3, Faults: 1, Mode: tc.mode, Algorithm: tc.algo, Seed: 13,
			})
			waitState(t, ts, sub.ID, StateDone)
			var vr verifyResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/verify",
				verifyRequest{JobID: sub.ID, Trials: 20, Seed: 17}, &vr); code != http.StatusOK {
				t.Fatalf("verify returned %d", code)
			}
			if !vr.OK {
				t.Errorf("%s result failed verification: %s", tc.algo, vr.Violation)
			}
		})
	}
}

func TestGeneratorsAndInlineAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// grid generator and the same grid submitted inline share a digest, so
	// the second submission is a cache hit across input encodings.
	grid := submitJob(t, ts, JobSpec{
		Generator: &GeneratorSpec{Name: "grid", Rows: 5, Cols: 6}, Stretch: 3, Faults: 1,
	})
	waitState(t, ts, grid.ID, StateDone)

	var sb strings.Builder
	if err := gen.Grid(5, 6).Encode(&sb); err != nil {
		t.Fatal(err)
	}
	inline := submitJob(t, ts, JobSpec{Graph: sb.String(), Stretch: 3, Faults: 1})
	if !inline.Cached {
		t.Error("inline resubmission of a generated graph missed the cache")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, spec := range map[string]JobSpec{
		"no input":            {Stretch: 3, Faults: 1},
		"two inputs":          {Graph: "p 1 0\n", Generator: &GeneratorSpec{Name: "complete", N: 3}, Stretch: 3},
		"bad stretch":         {Graph: "p 1 0\n", Stretch: 0.5},
		"negative faults":     {Graph: "p 1 0\n", Stretch: 3, Faults: -1},
		"bad mode":            {Graph: "p 1 0\n", Stretch: 3, Mode: "both"},
		"bad algorithm":       {Graph: "p 1 0\n", Stretch: 3, Algorithm: "magic"},
		"union-eft on vertex": {Graph: "p 1 0\n", Stretch: 3, Mode: "vertex", Algorithm: AlgoUnionEFT},
		"sampling even k":     {Graph: "p 1 0\n", Stretch: 4, Mode: "vertex", Algorithm: AlgoSamplingVFT},
		"malformed graph":     {Graph: "p 2 1\ne 0 5 1\n", Stretch: 3},
		"bad generator":       {Generator: &GeneratorSpec{Name: "torus", N: 4}, Stretch: 3},
		"oversized generator": {Generator: &GeneratorSpec{Name: "complete", N: maxGeneratedSize + 1}, Stretch: 3},
	} {
		t.Run(name, func(t *testing.T) {
			var eb errorBody
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &eb); code != http.StatusBadRequest {
				t.Fatalf("returned %d (%s), want 400", code, eb.Error)
			}
		})
	}

	// The priority and pipeline fields are gone; the strict decoder
	// refuses a body that still carries one.
	for name, body := range map[string]string{
		"priority field": `{"graph":"p 1 0\n","stretch":3,"priority":"high"}`,
		"pipeline field": `{"graph":"p 1 0\n","stretch":3,"parallelism":4,"pipeline":2}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, code := postJobRaw(t, ts, body); code != http.StatusBadRequest {
				t.Fatalf("returned %d, want 400", code)
			}
		})
	}

	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job status returned %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope/spanner", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job spanner returned %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job cancel returned %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/verify", verifyRequest{JobID: "nope"}, nil); code != http.StatusNotFound {
		t.Errorf("verify of unknown job returned %d", code)
	}
}

func TestSpannerOfUnfinishedJobConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	running := submitJob(t, ts, slowSpec(20))
	waitState(t, ts, running.ID, StateRunning)
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+running.ID+"/spanner", nil, nil); code != http.StatusConflict {
		t.Errorf("spanner of a running job returned %d, want 409", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/verify", verifyRequest{JobID: running.ID}, nil); code != http.StatusConflict {
		t.Errorf("verify of a running job returned %d, want 409", code)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil, nil)
}

func TestGeneratorOutputSizeCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, spec := range map[string]JobSpec{
		// n passes a naive parameter cap but n(n-1)/2 edges would be ~5e11.
		"complete blowup":  {Generator: &GeneratorSpec{Name: "complete", N: 1 << 20}, Stretch: 3},
		"geometric blowup": {Generator: &GeneratorSpec{Name: "geometric", N: 1 << 20, Radius: 2}, Stretch: 3},
		// rows*cols overflows int64? no — but it must not bypass the cap.
		"grid blowup":   {Generator: &GeneratorSpec{Name: "grid", Rows: 3037000600, Cols: 3037000600}, Stretch: 3},
		"random blowup": {Generator: &GeneratorSpec{Name: "random", N: 1 << 21, M: 10}, Stretch: 3},
	} {
		t.Run(name, func(t *testing.T) {
			var eb errorBody
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &eb); code != http.StatusBadRequest {
				t.Fatalf("returned %d (%s), want 400", code, eb.Error)
			}
		})
	}
}

func TestVerifyTrialsCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub := submitJob(t, ts, smallSpec(30))
	waitState(t, ts, sub.ID, StateDone)
	var eb errorBody
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/verify",
		verifyRequest{JobID: sub.ID, Trials: maxVerifyTrials + 1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("oversized trials returned %d (%s), want 400", code, eb.Error)
	}
	var vr verifyResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/verify",
		verifyRequest{JobID: sub.ID, Trials: 10, Workers: 1 << 20}, &vr); code != http.StatusOK || !vr.OK {
		t.Fatalf("verify with huge worker request: code=%d ok=%v", code, vr.OK)
	}
}

// TestReadBodyPreallocBounded: a declared Content-Length inside the body
// bound is trusted for one allocation only up to maxPreallocBody, so a
// client that declares the whole 8 MiB bound and sends two bytes before
// its connection ends does not make the server allocate 8 MiB; a body past
// maxPreallocBody is still read whole as it arrives.
func TestReadBodyPreallocBounded(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1})
	t.Cleanup(srv.Close)
	post := func(body io.Reader, declared int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", body)
		req.ContentLength = declared
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	var w *httptest.ResponseRecorder
	// A short body fails as net/http's body reader fails it.
	stalled := io.MultiReader(strings.NewReader("{}"), iotest.ErrReader(io.ErrUnexpectedEOF))
	if got := allocBytes(func() { w = post(stalled, srv.cfg.MaxBodyBytes) }); got > 2*maxPreallocBody {
		t.Errorf("a stalled body declaring %d bytes allocated %d bytes", srv.cfg.MaxBodyBytes, got)
	}
	if w.Code != http.StatusBadRequest {
		t.Errorf("a body shorter than its declared length: status %d (%s), want 400", w.Code, w.Body)
	}
	big := `{"job_id":"nope"}` + strings.Repeat(" ", 2*maxPreallocBody)
	if w = post(strings.NewReader(big), int64(len(big))); w.Code != http.StatusNotFound {
		t.Errorf("a %d-byte verify body: status %d (%s), want 404 for its unknown job", len(big), w.Code, w.Body)
	}
}
