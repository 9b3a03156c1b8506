package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/injectfs"
)

// waitRunning polls until the job leaves the queue and is actually building.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st statusResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status %s returned %d", id, code)
		}
		if st.State == StateRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s already terminal (%s) before running", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainRefusesSubmissionsAndReportsDraining(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	running := submitJob(t, ts, slowSpec(1))
	waitRunning(t, ts, running.ID)

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}

	// New submissions get 503 with a Retry-After estimated from the running
	// build's progress.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"generator":{"name":"random","n":30,"m":150,"seed":9},"stretch":3,"faults":1}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 carries no Retry-After header")
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "draining") {
		t.Errorf("draining 503 body %q", body.Error)
	}

	// /healthz flips to 503 "draining"; /metrics reports the gauge.
	hreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz returned %d, want 503", hresp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("draining healthz status %q", h.Status)
	}
	if m := getMetrics(t, ts); !m.Draining {
		t.Error("metrics draining gauge false during drain")
	}

	// The running build is unaffected and finishes; the drain then completes.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitState(t, ts, running.ID, StateDone)
}

func TestDrainCancelsQueuedJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	running := submitJob(t, ts, slowSpec(2))
	waitRunning(t, ts, running.ID)
	queued := submitJob(t, ts, smallSpec(3))

	srv.StartDrain()

	// The queued job is cancelled immediately — nobody waits on a queue no
	// worker will drain — while the running one keeps its slot.
	var st statusResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+queued.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	if st.State != StateCancelled {
		t.Errorf("queued job is %s after StartDrain, want cancelled", st.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitState(t, ts, running.ID, StateDone)
}

func TestDrainTimeoutForceCancelsRunningBuilds(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	running := submitJob(t, ts, slowSpec(4))
	waitRunning(t, ts, running.ID)

	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := srv.Drain(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Drain on an expired context returned %v, want DeadlineExceeded", err)
	}
	// The forced path cancels the build but still records a clean terminal
	// state before Drain returns.
	var st statusResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+running.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	if st.State != StateCancelled {
		t.Errorf("force-drained job is %s, want cancelled", st.State)
	}
}

func TestCloseIsIdempotentAndSafeDuringSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	// Hammer submissions from several goroutines while Close runs: every
	// request must resolve (202 accepted before the drain flag, 503 after),
	// and nothing may hang or panic.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seed := int64(0); ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				var resp submitResponse
				code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec(100+int64(i)*1000+seed), &resp)
				switch code {
				case http.StatusAccepted, http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
				default:
					t.Errorf("submit during close returned %d", code)
					return
				}
				if code == http.StatusServiceUnavailable {
					return // server is closing; goal reached
				}
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	srv.Close() // idempotent: second call returns immediately
	close(stop)
	wg.Wait()

	// After Close every queued job has a terminal state — no client polls a
	// job forever.
	srv.mu.Lock()
	jobs := make([]*Job, 0, len(srv.jobs))
	for _, j := range srv.jobs {
		jobs = append(jobs, j)
	}
	srv.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if !state.Terminal() {
			t.Errorf("job %s left non-terminal (%s) after Close", j.id, state)
		}
	}
}

func TestDrainAndCloseCompletesInFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	sub := submitJob(t, ts, smallSpec(11))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.DrainAndClose(ctx); err != nil {
		t.Fatalf("DrainAndClose: %v", err)
	}
	var st statusResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	if st.State != StateDone && st.State != StateCancelled {
		t.Errorf("job ended %s after graceful close", st.State)
	}
	if st.State == StateCancelled {
		t.Log("job was still queued at drain start; cancelled is the designed outcome")
	}
}

func TestEventStreamDeliversTerminalEventAcrossDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	sub := submitJob(t, ts, slowSpec(5))
	waitRunning(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		done <- srv.DrainAndClose(ctx)
	}()

	// The NDJSON stream must deliver the terminal event even though the
	// server shuts down while the client is subscribed: the graceful drain
	// finishes the build, and the handler's shutdown path flushes the events
	// that raced the listener teardown.
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("DrainAndClose: %v", err)
	}
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal event %+v", last)
	}
	if last.State != StateDone {
		t.Errorf("drained build ended %s, want done", last.State)
	}
}

func TestJobDeadlineExceededState(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := slowSpec(6)
	spec.DeadlineMs = 30
	sub := submitJob(t, ts, spec)
	st := waitState(t, ts, sub.ID, StateDeadline)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("deadline_exceeded job error %q", st.Error)
	}
	m := getMetrics(t, ts)
	if m.JobsDeadlineExceeded != 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want 1", m.JobsDeadlineExceeded)
	}
	if m.JobsByState[StateDeadline] != 1 {
		t.Errorf("jobs_by_state[deadline_exceeded] = %d", m.JobsByState[StateDeadline])
	}

	// The worker slot survived: a normal job still builds.
	ok := submitJob(t, ts, smallSpec(7))
	waitState(t, ts, ok.ID, StateDone)
}

func TestBuildPanicBecomesFailedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Chaos: func(site string) {
			if site == "oracle-query" {
				panic("injected oracle panic")
			}
		},
	})
	// Sequential build: the oracle panic escapes core and must be contained
	// by the worker's build-goroutine recovery.
	sub := submitJob(t, ts, smallSpec(9))
	deadline := time.Now().Add(60 * time.Second)
	var st statusResponse
	for {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("status returned %d", code)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("panicking job never reached a terminal state")
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != StateFailed {
		t.Fatalf("panicking job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic in build") || !strings.Contains(st.Error, "injected oracle panic") {
		t.Errorf("failed job error does not name the panic: %q", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Errorf("failed job error carries no stack trace: %.120q", st.Error)
	}
	m := getMetrics(t, ts)
	if m.PanicsTotal != 1 {
		t.Errorf("panics_total = %d, want 1", m.PanicsTotal)
	}
	if m.JobsFailed != 1 {
		t.Errorf("jobs_failed = %d, want 1", m.JobsFailed)
	}
}

func TestStoreDegradedSurfacesInMetricsAndHealthz(t *testing.T) {
	ifs := injectfs.New(1)
	srv, ts := newTestServer(t, Config{
		Workers:            1,
		StoreDir:           t.TempDir(),
		StoreFS:            ifs,
		StoreProbeInterval: 5 * time.Millisecond,
	})

	// Force every write to fail until the breaker trips, then submit builds
	// whose persists hammer the broken disk. Jobs must still complete.
	ifs.ForceWriteFailures(1000, syscall.ENOSPC)
	deadline := time.Now().Add(60 * time.Second)
	for seed := int64(0); !srv.store.Degraded(); seed++ {
		sub := submitJob(t, ts, smallSpec(200+seed))
		waitState(t, ts, sub.ID, StateDone)
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped under forced write failures")
		}
	}

	m := getMetrics(t, ts)
	if !m.StoreDegraded || m.StoreBreakerTrips < 1 {
		t.Errorf("degraded metrics: degraded=%v trips=%d", m.StoreDegraded, m.StoreBreakerTrips)
	}

	// Degraded is NOT unhealthy: healthz stays 200 with status "degraded".
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Status != "degraded" || h.Store != "degraded" {
		t.Errorf("degraded healthz: code=%d status=%q store=%q", hresp.StatusCode, h.Status, h.Store)
	}

	// Disk recovers; the probe re-arms the breaker and healthz returns to ok.
	ifs.Clear()
	for time.Now().Before(deadline) && srv.store.Degraded() {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.store.Degraded() {
		t.Fatal("breaker never re-armed after the disk recovered")
	}
	hresp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	if err := json.NewDecoder(hresp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if hresp2.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("recovered healthz: code=%d status=%q", hresp2.StatusCode, h.Status)
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := smallSpec(10)
	spec.DeadlineMs = -5
	var body errorBody
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("negative deadline returned %d, want 400", code)
	}
	if !strings.Contains(body.Error, "deadline_ms") {
		t.Errorf("rejection body %q", body.Error)
	}
}
