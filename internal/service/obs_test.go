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

	// The histograms saw the same lifecycle: one queue wait, one build, one
	// persist, and some store/oracle operations.
	m := getMetrics(t, ts)
	if n := m.Latency.QueueWait.Count; n != 1 {
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

// TestTraceLivesWithJob checks a job's trace is readable exactly as long
// as the job: a sweep that spares the job spares its trace, and the sweep
// that evicts the job takes the trace with it.
func TestTraceLivesWithJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, JobRetention: time.Hour})
	sub := submitJob(t, ts, smallSpec(41))
	waitState(t, ts, sub.ID, StateDone)

	if n := srv.sweepExpired(time.Now().Add(time.Minute)); n != 0 {
		t.Fatalf("sweep inside retention evicted %d jobs, want 0", n)
	}
	if _, code := getTrace(t, ts, sub.ID); code != http.StatusOK {
		t.Fatalf("trace of a retained job returned %d, want 200", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("status of a retained job returned %d, want 200", code)
	}

	if n := srv.sweepExpired(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("sweep past retention evicted %d jobs, want 1", n)
	}
	if _, code := getTrace(t, ts, sub.ID); code != http.StatusNotFound {
		t.Fatalf("trace of an evicted job returned %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status of an evicted job returned %d, want 404", code)
	}
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
