package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// submitNormalized submits spec the way the HTTP handler does, for tests
// that drive the Server directly.
func submitNormalized(srv *Server, spec JobSpec) (*Job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	res, err := srv.Resolve(body)
	if err != nil {
		return nil, badSpecError(err)
	}
	job, _, err := srv.submit(res)
	return job, err
}

// TestJobRetentionEvictsTerminal checks the terminal-job GC: finished jobs
// vanish from the job map after the retention window (their IDs 404), the
// eviction counter moves, and the result survives in the LRU cache so a
// resubmission is still answered without a rebuild.
func TestJobRetentionEvictsTerminal(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobRetention: 30 * time.Millisecond})

	sub := submitJob(t, ts, smallSpec(1))
	waitState(t, ts, sub.ID, StateDone)

	deadline := time.Now().Add(30 * time.Second)
	for {
		code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID, nil, nil)
		if code == http.StatusNotFound {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("status returned %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still addressable long after retention", sub.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The spanner endpoint of an evicted job 404s too.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/spanner", nil, nil); code != http.StatusNotFound {
		t.Fatalf("spanner of evicted job returned %d, want 404", code)
	}
	if m := getMetrics(t, ts); m.JobsEvicted < 1 {
		t.Fatalf("jobs_evicted = %d, want >= 1", m.JobsEvicted)
	}

	// The RESULT outlived the job: resubmitting is a cache hit, born done.
	resub := submitJob(t, ts, smallSpec(1))
	if !resub.Cached {
		t.Fatalf("resubmission after eviction was not served from cache: %+v", resub)
	}
	if resub.ID == sub.ID {
		t.Fatalf("resubmission reused the evicted job ID %s", sub.ID)
	}
}

// TestJobRetentionSparesLiveJobs pins that the sweep only collects terminal
// jobs: queued and running jobs survive a sweep dated arbitrarily far in
// the future. Driven directly (not via the janitor's clock) so the check
// cannot race the build's actual duration.
func TestJobRetentionSparesLiveJobs(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, JobRetention: time.Millisecond})
	defer srv.Close()

	running, err := submitNormalized(srv, slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := submitNormalized(srv, slowSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Neither job can be terminal yet (the builds take at least tens of
	// milliseconds and we sweep immediately); both must survive a sweep
	// dated an hour ahead.
	if n := srv.sweepExpired(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("sweep evicted %d live jobs", n)
	}
	for _, j := range []*Job{running, queued} {
		got, ok := srv.job(j.id)
		if !ok || got != j {
			t.Fatalf("live job %s not addressable after sweep", j.id)
		}
	}
	// End the slow builds promptly.
	srv.cancelJob(running)
	srv.cancelJob(queued)
}

// TestSweepExpiredDirect unit-tests the sweep against hand-set clocks,
// covering the never-evict (negative retention handled by config) and
// boundary paths without timing dependence.
func TestSweepExpiredDirect(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, JobRetention: time.Hour})
	defer srv.Close()

	job, err := submitNormalized(srv, smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.done:
	case <-time.After(60 * time.Second):
		t.Fatal("build did not finish")
	}
	job.mu.Lock()
	state, buildErr := job.state, job.err
	job.mu.Unlock()
	if state != StateDone {
		t.Fatalf("job ended %s (%v), want done", state, buildErr)
	}
	if n := srv.sweepExpired(time.Now()); n != 0 {
		t.Fatalf("fresh terminal job evicted %d", n)
	}
	if n := srv.sweepExpired(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("expired sweep evicted %d, want 1", n)
	}
	if _, ok := srv.job(job.id); ok {
		t.Fatal("evicted job still addressable")
	}
}
