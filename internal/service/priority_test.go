package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mkJob returns a bare queued job of the given class for unit-level queue
// tests (no spec or graph needed below the HTTP layer).
func mkJob(c class) *Job { return &Job{class: c} }

// TestWeightedFairPopShares: with every class backlogged, each consecutive
// window of weightSum pops hands out exactly the configured 4:2:1 shares.
func TestWeightedFairPopShares(t *testing.T) {
	var jq jobQueues
	for i := 0; i < 12; i++ {
		jq.push(mkJob(classHigh))
		jq.push(mkJob(classNormal))
		jq.push(mkJob(classLow))
	}
	for window := 0; window < 3; window++ {
		var got [numClasses]int
		for i := 0; i < weightSum; i++ {
			job := jq.pop()
			if job == nil {
				t.Fatalf("window %d pop %d: empty pop with backlog remaining", window, i)
			}
			got[job.class]++
		}
		if got != classWeights {
			t.Fatalf("window %d shares %v, want %v", window, got, classWeights)
		}
	}
}

// TestPopIsFIFOWithinClass: scheduling reorders classes, never jobs within
// a class.
func TestPopIsFIFOWithinClass(t *testing.T) {
	var jq jobQueues
	jobs := make([]*Job, 20)
	for i := range jobs {
		jobs[i] = mkJob(classLow)
		jq.push(jobs[i])
	}
	for i := range jobs {
		if got := jq.pop(); got != jobs[i] {
			t.Fatalf("pop %d returned out of order", i)
		}
	}
	if jq.pop() != nil {
		t.Fatal("pop from drained queues returned a job")
	}
}

// TestSoleClassDrainsAtFullSpeed: an empty class neither gains credit nor
// blocks; a lone backlog (any class) is served on every pop.
func TestSoleClassDrainsAtFullSpeed(t *testing.T) {
	for c := class(0); c < numClasses; c++ {
		var jq jobQueues
		for i := 0; i < 5; i++ {
			jq.push(mkJob(c))
		}
		for i := 0; i < 5; i++ {
			if job := jq.pop(); job == nil || job.class != c {
				t.Fatalf("class %v pop %d: got %+v", c, i, job)
			}
		}
	}
}

// TestStarvationBoundUnit is the scheduler's liveness guarantee: whatever
// the competing backlog, a job at the head of ANY class is popped within
// weightSum dequeues.
func TestStarvationBoundUnit(t *testing.T) {
	backlogs := [][]class{
		{classHigh},
		{classNormal},
		{classHigh, classNormal},
		{classHigh, classHigh, classNormal}, // duplicates just deepen the backlog
	}
	for target := class(0); target < numClasses; target++ {
		for _, others := range backlogs {
			var jq jobQueues
			for _, c := range others {
				if c == target {
					continue
				}
				for i := 0; i < 100; i++ {
					jq.push(mkJob(c))
				}
			}
			want := mkJob(target)
			jq.push(want)
			found := -1
			for i := 0; i < weightSum; i++ {
				if jq.pop() == want {
					found = i
					break
				}
			}
			if found < 0 {
				t.Fatalf("class %v job starved past %d pops against backlog %v", target, weightSum, others)
			}
		}
	}
}

// doneAtOf reads a terminal job's completion instant.
func doneAtOf(t *testing.T, srv *Server, id string) time.Time {
	t.Helper()
	job, ok := srv.job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if !job.state.Terminal() {
		t.Fatalf("job %s is %s, not terminal", id, job.state)
	}
	return time.Unix(0, job.retention.ns.Load())
}

// prioritySpec is smallSpec with a distinct seed and a priority class.
func prioritySpec(seed int64, p Priority) JobSpec {
	spec := smallSpec(seed)
	spec.Priority = p
	return spec
}

// blockerSpec is a build heavy enough (over a second on a 2-CPU x86-64
// box) to hold the lone worker while a test submits its whole queue —
// slowSpec is too quick once ~20 HTTP submissions contend for the same CPU.
func blockerSpec() JobSpec {
	return JobSpec{
		Generator: &GeneratorSpec{Name: "random", N: 800, M: 100000, Seed: 999},
		Stretch:   3,
		Faults:    3,
	}
}

// submitBlocked starts a one-worker server with a long build occupying the
// worker, so every job submitted afterwards queues behind it and the
// dequeue order is decided by the scheduler alone.
func submitBlocked(t *testing.T, cfg Config) (*Server, *httptest.Server, submitResponse) {
	t.Helper()
	cfg.Workers = 1
	srv, ts := newTestServer(t, cfg)
	blocker := submitJob(t, ts, blockerSpec())
	waitState(t, ts, blocker.ID, StateRunning)
	return srv, ts, blocker
}

// assertBlockerHeld fails the test if the blocker finished before the
// queued submissions were all in — the scheduling observation would be
// meaningless. blockerSpec runs over a second against ~1ms of
// submissions, so tripping this means the workload model broke.
func assertBlockerHeld(t *testing.T, ts *httptest.Server, blockerID string) {
	t.Helper()
	var st statusResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+blockerID, nil, &st); code != http.StatusOK {
		t.Fatalf("blocker status returned %d", code)
	}
	if st.State != StateRunning {
		t.Fatalf("blocker already %s before submissions finished; queue order not observable", st.State)
	}
}

// TestPriorityOrderingUnderSaturatedPool locks the end-to-end weighted-fair
// dequeue order: with one worker busy and 4 high + 2 normal + 1 low queued,
// completion order must follow the smooth-WRR cycle H N H L H N H (FIFO
// within each class).
func TestPriorityOrderingUnderSaturatedPool(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-build scheduling soak skipped in -short mode")
	}
	srv, ts, blocker := submitBlocked(t, Config{QueueDepth: 32})

	wantOrder := []Priority{
		PriorityHigh, PriorityNormal, PriorityHigh, PriorityLow,
		PriorityHigh, PriorityNormal, PriorityHigh,
	}
	// Submission order groups classes so FIFO-within-class is also visible:
	// seeds are distinct, so every job is a real build.
	var ids []string
	var want []Priority
	seed := int64(100)
	for _, p := range []Priority{PriorityHigh, PriorityHigh, PriorityHigh, PriorityHigh,
		PriorityNormal, PriorityNormal, PriorityLow} {
		seed++
		sub := submitJob(t, ts, prioritySpec(seed, p))
		if sub.Cached || sub.Deduplicated {
			t.Fatalf("queued submission unexpectedly %+v", sub)
		}
		ids = append(ids, sub.ID)
		want = append(want, p)
	}
	assertBlockerHeld(t, ts, blocker.ID)

	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}
	// Completion order == dequeue order (one worker, serial builds).
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	done := make([]time.Time, len(ids))
	for i, id := range ids {
		done[i] = doneAtOf(t, srv, id)
	}
	sort.Slice(order, func(a, b int) bool { return done[order[a]].Before(done[order[b]]) })
	var got []Priority
	for _, i := range order {
		got = append(got, want[i])
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("completion class order %v, want %v", got, wantOrder)
		}
	}
	// FIFO within class: the four high jobs finished in submission order.
	var highDone []time.Time
	for i, p := range want {
		if p == PriorityHigh {
			highDone = append(highDone, done[i])
		}
	}
	for i := 1; i < len(highDone); i++ {
		if highDone[i].Before(highDone[i-1]) {
			t.Fatalf("high-priority jobs completed out of submission order")
		}
	}
	m := getMetrics(t, ts)
	if q := m.Queues[PriorityHigh]; q.Dequeued != 4 || q.Weight != classWeights[classHigh] {
		t.Errorf("high class snapshot %+v, want 4 dequeued at weight %d", q, classWeights[classHigh])
	}
	if q := m.Queues[PriorityLow]; q.Dequeued != 1 {
		t.Errorf("low class snapshot %+v, want 1 dequeued", q)
	}
}

// TestLowPriorityStarvationBound is the satellite bound end to end: a low
// job admitted BEFORE a pile of high jobs completes within weightSum
// dequeues, however deep the high backlog.
func TestLowPriorityStarvationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-build scheduling soak skipped in -short mode")
	}
	const highJobs = 20
	srv, ts, blocker := submitBlocked(t, Config{QueueDepth: 64})

	low := submitJob(t, ts, prioritySpec(200, PriorityLow))
	highIDs := make([]string, highJobs)
	for i := range highIDs {
		highIDs[i] = submitJob(t, ts, prioritySpec(300+int64(i), PriorityHigh)).ID
	}
	assertBlockerHeld(t, ts, blocker.ID)

	waitState(t, ts, low.ID, StateDone)
	for _, id := range highIDs {
		waitState(t, ts, id, StateDone)
	}
	lowDone := doneAtOf(t, srv, low.ID)
	before := 0
	for _, id := range highIDs {
		if doneAtOf(t, srv, id).Before(lowDone) {
			before++
		}
	}
	// The low job is dequeued within weightSum pops, i.e. at most
	// weightSum-1 high jobs may beat it (the exact smooth-WRR trace with
	// only high+low backlogged dequeues it third).
	if before >= weightSum {
		t.Fatalf("%d high-priority jobs completed before the earlier-admitted low job (bound %d)",
			before, weightSum-1)
	}
}

// rawSubmit posts spec and returns the raw response for header inspection.
func rawSubmit(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestPerClassBackpressure429: a full priority class rejects with 429 and a
// positive Retry-After, counts the rejection, and leaves the other classes'
// admission untouched (the global queue answers 503 as before).
func TestPerClassBackpressure429(t *testing.T) {
	_, ts, blocker := submitBlocked(t, Config{
		QueueDepth: 100,
		QueueCaps:  map[Priority]int{PriorityLow: 1},
	})

	first := submitJob(t, ts, prioritySpec(400, PriorityLow))
	if first.Cached || first.Deduplicated {
		t.Fatalf("first low job unexpectedly %+v", first)
	}
	assertBlockerHeld(t, ts, blocker.ID)

	resp := rawSubmit(t, ts, prioritySpec(401, PriorityLow))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap low submission returned %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, `"low"`) {
		t.Errorf("429 body %q does not name the full class", eb.Error)
	}

	// Other classes are unaffected by low's cap.
	normal := submitJob(t, ts, prioritySpec(402, PriorityNormal))
	if normal.Cached || normal.Deduplicated {
		t.Fatalf("normal job unexpectedly %+v", normal)
	}

	m := getMetrics(t, ts)
	if q := m.Queues[PriorityLow]; q.Rejected != 1 || q.Depth != 1 || q.Cap != 1 {
		t.Fatalf("low class snapshot %+v, want rejected=1 depth=1 cap=1", q)
	}
	if q := m.Queues[PriorityNormal]; q.Rejected != 0 || q.Depth != 1 {
		t.Fatalf("normal class snapshot %+v, want rejected=0 depth=1", q)
	}
	if m.Queues[PriorityLow].OldestAgeMS <= 0 {
		t.Errorf("oldest_age_ms=%v for a queued low job, want > 0", m.Queues[PriorityLow].OldestAgeMS)
	}
}

// TestPriorityValidation: unknown classes are rejected up front, the empty
// class defaults to normal, and priority never enters the cache key (a
// high resubmission of a normal-built result is a cache hit).
func TestPriorityValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	bad := smallSpec(500)
	bad.Priority = "urgent"
	resp := rawSubmit(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority returned %d, want 400", resp.StatusCode)
	}

	built := submitJob(t, ts, smallSpec(501)) // empty priority -> normal
	waitState(t, ts, built.ID, StateDone)
	var st statusResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+built.ID, nil, &st)
	if st.Priority != PriorityNormal {
		t.Fatalf("defaulted priority %q, want %q", st.Priority, PriorityNormal)
	}

	rehit := submitJob(t, ts, prioritySpec(501, PriorityHigh))
	if !rehit.Cached {
		t.Fatal("same spec at a different priority missed the cache; priority must not enter the key")
	}
}
