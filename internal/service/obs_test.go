package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/obs"
)

func getTrace(t *testing.T, ts *httptest.Server, id string) (obs.TraceSnapshot, int) {
	t.Helper()
	var snap obs.TraceSnapshot
	code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/trace", nil, &snap)
	return snap, code
}

// childNamed returns the first direct child span with the given name.
func childNamed(root obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	for i := range root.Children {
		if root.Children[i].Name == name {
			return &root.Children[i]
		}
	}
	return nil
}

// TestTraceEndpointSpanTree drives a speculative parallel build with the
// durable store enabled and checks the whole trace contract: a closed root
// named "job" whose children are queue-wait, build, and persist in
// chronological order, build-phase events on the build span, and phase
// durations that add up to (at most) the root.
func TestTraceEndpointSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, StoreDir: t.TempDir()})

	sub := submitJob(t, ts, parallelSpec(21, 4))
	st := waitState(t, ts, sub.ID, StateDone)

	// The job turns done before its persist span and root close (the state
	// flips under the job lock, the trace is sealed just after), so poll
	// briefly for the sealed trace.
	var snap obs.TraceSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		var code int
		snap, code = getTrace(t, ts, sub.ID)
		if code != http.StatusOK {
			t.Fatalf("trace returned %d", code)
		}
		if !snap.Root.Open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("root span never closed on a done job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.ID != sub.ID || snap.Root.Name != "job" {
		t.Fatalf("trace id %q root %q, want %q and \"job\"", snap.ID, snap.Root.Name, sub.ID)
	}
	var names []string
	for _, c := range snap.Root.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, ","); got != "queue-wait,build,persist" {
		t.Fatalf("root children %q, want queue-wait,build,persist", got)
	}
	build := childNamed(snap.Root, "build")
	commits := 0
	for _, ev := range build.Events {
		if ev.Name == core.PhaseBatchCommit {
			commits++
		}
	}
	if commits == 0 {
		t.Fatalf("build span has no batch-commit events (events: %d)", len(build.Events))
	}
	// The lifecycle phases partition the root: non-overlapping children
	// cannot sum past their parent.
	var sum float64
	for _, c := range snap.Root.Children {
		if c.Open {
			t.Fatalf("child %s still open on a done job", c.Name)
		}
		if c.DurationMS > snap.Root.DurationMS+0.5 {
			t.Fatalf("child %s (%.3fms) outlasts root (%.3fms)", c.Name, c.DurationMS, snap.Root.DurationMS)
		}
		sum += c.DurationMS
	}
	if sum > snap.Root.DurationMS+0.5 {
		t.Fatalf("children sum to %.3fms, root is %.3fms", sum, snap.Root.DurationMS)
	}
	// Job stats report the same phase durations.
	if st.Stats.BuildMS <= 0 || st.Stats.QueueMS < 0 {
		t.Fatalf("job stats missing phase durations: %+v", *st.Stats)
	}

	// The histograms saw the same lifecycle: one queue wait in the job's
	// class, one build, one persist, and some store/oracle operations.
	m := getMetrics(t, ts)
	if n := m.Latency.QueueWait[PriorityNormal].Count; n != 1 {
		t.Fatalf("queue-wait histogram count %d, want 1", n)
	}
	if m.Latency.Build.Count != 1 || m.Latency.Persist.Count != 1 {
		t.Fatalf("build/persist histogram counts %d/%d, want 1/1",
			m.Latency.Build.Count, m.Latency.Persist.Count)
	}
	if m.Latency.StorePut.Count == 0 {
		t.Fatal("store put histogram empty with the store enabled")
	}
	if m.Latency.Build.P50MS <= 0 || m.Latency.Build.MaxMS < m.Latency.Build.P50MS {
		t.Fatalf("implausible build summary: %+v", m.Latency.Build)
	}
}

func attrValue(attrs []obs.Attr, key string) int64 {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return -1
}

// TestTraceCachedJob checks a cache-hit job's trace: a closed root marked
// cached, with no queue or build spans (nothing was queued or built).
func TestTraceCachedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	first := submitJob(t, ts, smallSpec(31))
	waitState(t, ts, first.ID, StateDone)
	again := submitJob(t, ts, smallSpec(31))
	if !again.Cached {
		t.Fatalf("resubmission not cached: %+v", again)
	}
	snap, code := getTrace(t, ts, again.ID)
	if code != http.StatusOK {
		t.Fatalf("trace returned %d", code)
	}
	if snap.Root.Open || len(snap.Root.Children) != 0 {
		t.Fatalf("cached job trace should be a closed leaf root: open=%v children=%d",
			snap.Root.Open, len(snap.Root.Children))
	}
	if attrValue(snap.Root.Attrs, "cached") != 1 {
		t.Fatalf("cached job root not marked cached: %+v", snap.Root.Attrs)
	}
}

// TestTraceRetention checks traces age out independently of their jobs: with
// TraceRetention far below JobRetention, a sweep drops the trace (404) while
// the job status stays addressable.
func TestTraceRetention(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:        1,
		JobRetention:   24 * time.Hour,
		TraceRetention: time.Millisecond,
	})
	sub := submitJob(t, ts, smallSpec(41))
	waitState(t, ts, sub.ID, StateDone)
	if _, code := getTrace(t, ts, sub.ID); code != http.StatusOK {
		t.Fatalf("fresh trace returned %d", code)
	}

	// One hour from now: trace retention (1ms) has lapsed, job retention
	// (24h) has not.
	if n := srv.sweepExpired(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("sweep evicted %d jobs, want 0", n)
	}
	if _, code := getTrace(t, ts, sub.ID); code != http.StatusNotFound {
		t.Fatalf("trace after retention returned %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("job status after trace drop returned %d, want 200", code)
	}
}

// TestWaitShedder pins the shedder's two signals: a head-of-line age over
// budget sheds immediately, a p90 over budget sheds once enough samples
// back it, and a zero budget never sheds.
func TestWaitShedder(t *testing.T) {
	off := newWaitShedder(0)
	off.observe(classNormal, time.Hour)
	if off.shouldShed(classNormal, time.Hour) {
		t.Fatal("zero budget shed")
	}

	ws := newWaitShedder(50 * time.Millisecond)
	if ws.shouldShed(classNormal, 10*time.Millisecond) {
		t.Fatal("shed with no history and head under budget")
	}
	if !ws.shouldShed(classNormal, 60*time.Millisecond) {
		t.Fatal("head-of-line age over budget did not shed")
	}
	for i := 0; i < shedMinSamples-1; i++ {
		ws.observe(classNormal, 100*time.Millisecond)
	}
	if ws.shouldShed(classNormal, 0) {
		t.Fatalf("shed on %d samples, below the minimum %d", shedMinSamples-1, shedMinSamples)
	}
	ws.observe(classNormal, 100*time.Millisecond)
	if !ws.shouldShed(classNormal, 0) {
		t.Fatal("p90 over budget did not shed")
	}
	// Classes are independent.
	if ws.shouldShed(classHigh, 0) {
		t.Fatal("another class's waits shed this one")
	}
	// A recovered class (fast recent waits) stops shedding.
	for i := 0; i < shedWindow; i++ {
		ws.observe(classNormal, time.Millisecond)
	}
	if ws.shouldShed(classNormal, 0) {
		t.Fatal("still shedding after the window refilled with fast waits")
	}
}

// TestShedEndToEnd checks the HTTP face of load shedding: with a head-of-
// line job already over the (tiny) budget, the next submission gets 429 and
// the per-class shed counter moves.
func TestShedEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, WaitBudget: time.Nanosecond})

	// Occupy the lone worker, then queue one job so the class has an aging
	// head.
	running := submitJob(t, ts, slowSpec(61))
	waitState(t, ts, running.ID, StateRunning)
	queued := submitJob(t, ts, slowSpec(62))
	_ = queued

	var errResp errorBody
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slowSpec(63), &errResp)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submission over budget returned %d, want 429", code)
	}
	if !strings.Contains(errResp.Error, "shedding") {
		t.Fatalf("shed error %q does not name shedding", errResp.Error)
	}
	m := getMetrics(t, ts)
	if m.Queues[PriorityNormal].Shed != 1 {
		t.Fatalf("shed counter %d, want 1", m.Queues[PriorityNormal].Shed)
	}
	if m.WaitBudgetMS <= 0 {
		t.Fatalf("wait budget %f not surfaced", m.WaitBudgetMS)
	}
	// Unblock the pool so Cleanup is fast.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil, nil)
}

// TestHealthzAndVersion checks the liveness probe and the build-stamp /
// uptime / terminal-counter satellites in /metrics.
func TestHealthzAndVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir(), Version: "test-v1"})

	var h healthResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h.Status != "ok" || h.Store != "ok" || h.Version != "test-v1" || h.UptimeSeconds < 0 {
		t.Fatalf("unexpected health: %+v", h)
	}

	sub := submitJob(t, ts, smallSpec(71))
	waitState(t, ts, sub.ID, StateDone)
	m := getMetrics(t, ts)
	if m.JobsDone != 1 || m.JobsFailed != 0 || m.JobsCancelled != 0 {
		t.Fatalf("terminal counters done/failed/cancelled = %d/%d/%d, want 1/0/0",
			m.JobsDone, m.JobsFailed, m.JobsCancelled)
	}
	if m.Version != "test-v1" || m.UptimeSeconds < 0 {
		t.Fatalf("version/uptime not surfaced: %q / %f", m.Version, m.UptimeSeconds)
	}
}
