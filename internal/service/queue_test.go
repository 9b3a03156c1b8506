package service

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
)

// TestPopIsFIFO: the job queue hands jobs out in submission order, and
// removing a cancelled job keeps the order of the rest.
func TestPopIsFIFO(t *testing.T) {
	var q jobQueue
	jobs := make([]*Job, 20)
	for i := range jobs {
		jobs[i] = &Job{}
		q.push(jobs[i])
	}
	q.remove(jobs[7])
	for i, want := range jobs {
		if i == 7 {
			continue
		}
		if got := q.pop(); got != want {
			t.Fatalf("pop %d returned out of order", i)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop from a drained queue returned a job")
	}
}

// blockedServer starts a one-worker server whose greedy builds all hold at
// their first oracle query until the returned release runs, and a blocker
// job (smallSpec(1), deadline_ms 60000) that holds the worker, so every job
// submitted afterwards stays queued.
func blockedServer(t *testing.T) (*httptest.Server, submitResponse, func()) {
	t.Helper()
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	_, ts := newTestServer(t, Config{Workers: 1, Chaos: func(site string) {
		if site == core.ChaosSiteOracle {
			<-hold
		}
	}})
	t.Cleanup(release) // runs before the server closes
	blocker := submitJob(t, ts, withDeadline(1, 60_000))
	waitState(t, ts, blocker.ID, StateRunning)
	return ts, blocker, release
}

func withDeadline(seed, ms int64) JobSpec {
	spec := smallSpec(seed)
	spec.DeadlineMs = ms
	return spec
}

// TestExpiredQueuedJobSkipsBuild: a job whose deadline passes while it is
// queued ends deadline_exceeded at dequeue. It starts no build: no build
// span, and builds_total counts the blocker alone.
func TestExpiredQueuedJobSkipsBuild(t *testing.T) {
	ts, blocker, release := blockedServer(t)
	spec := smallSpec(9)
	spec.DeadlineMs = 50
	late := submitJob(t, ts, spec)
	time.Sleep(100 * time.Millisecond)
	release()

	st := waitState(t, ts, late.ID, StateDeadline)
	if st.Error != "deadline of 50ms exceeded" {
		t.Errorf("expired job error %q", st.Error)
	}
	waitState(t, ts, blocker.ID, StateDone)
	m := getMetrics(t, ts)
	if m.BuildsTotal != 1 || m.JobsDeadlineExceeded != 1 {
		t.Errorf("builds_total=%d jobs_deadline_exceeded=%d, want 1 and 1", m.BuildsTotal, m.JobsDeadlineExceeded)
	}
	snap, _ := getTrace(t, ts, late.ID)
	if childNamed(snap.Root, "build") != nil || snap.Root.Open {
		t.Errorf("expired job trace %+v, want a closed root without a build span", snap.Root)
	}
}

// TestDedupRespectsDeadlines: no submission inherits a deadline earlier
// than its own, and dedup still holds. A submission joins a queued job,
// which takes the later deadline (no deadline is the latest), so identical
// submissions with the same deadline_ms give one job. A running job keeps
// the deadline its build started under: a submission with a later one
// queues a job of its own, which answers from the running build's result.
func TestDedupRespectsDeadlines(t *testing.T) {
	ts, blocker, release := blockedServer(t)

	tight := submitJob(t, ts, withDeadline(9, 50))
	if loose := submitJob(t, ts, smallSpec(9)); loose.ID != tight.ID || !loose.Deduplicated {
		t.Fatalf("submission without a deadline did not coalesce onto the queued %s: %+v", tight.ID, loose)
	}

	first := submitJob(t, ts, withDeadline(10, 60_000))
	time.Sleep(5 * time.Millisecond)
	if again := submitJob(t, ts, withDeadline(10, 60_000)); again.ID != first.ID || !again.Deduplicated {
		t.Fatalf("same deadline_ms resubmitted did not coalesce onto %s: %+v", first.ID, again)
	}

	fork := submitJob(t, ts, smallSpec(1))
	if fork.ID == blocker.ID || fork.Deduplicated {
		t.Fatalf("submission without a deadline joined the running 60s %s: %+v", blocker.ID, fork)
	}
	if joined := submitJob(t, ts, withDeadline(1, 120_000)); joined.ID != fork.ID || !joined.Deduplicated {
		t.Fatalf("120s submission did not coalesce onto the queued %s: %+v", fork.ID, joined)
	}

	time.Sleep(100 * time.Millisecond) // past the tight submission's 50ms
	release()
	waitState(t, ts, tight.ID, StateDone)
	waitState(t, ts, first.ID, StateDone)
	waitState(t, ts, blocker.ID, StateDone)
	if st := waitState(t, ts, fork.ID, StateDone); !st.Cached {
		t.Errorf("queued duplicate of a finished build rebuilt: %+v", st)
	}
	if m := getMetrics(t, ts); m.BuildsTotal != 3 || m.Deduplicated != 3 {
		t.Errorf("builds_total=%d deduplicated=%d, want 3 and 3", m.BuildsTotal, m.Deduplicated)
	}
}
