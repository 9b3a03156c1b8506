// Seeded end-to-end chaos suite: one server run under simultaneous disk
// faults (probabilistic EIO/ENOSPC, torn renames, slow writes), injected
// build panics, and per-job deadlines, followed by clean-room verification
// that nothing the chaos touched was wrong — merely absent.
//
// Pass criteria (the ISSUE's bar):
//   - the process never dies: every submitted job reaches a terminal state;
//   - jobs that succeeded under chaos produced spanners byte-identical (by
//     graph digest) to an uninjected rebuild of the same spec;
//   - the store never serves a corrupt record: a clean server reopening the
//     chaos-era store directory answers every spec with the correct digest;
//   - the breaker trips under a forced failure burst and re-arms after the
//     disk recovers, with persistence demonstrably resumed.
//
// The whole run is driven by one seed (default fixed; override with
// CHAOS_SEED=n) so a failure reproduces exactly; on failure the seed is
// written to chaos_failure_seed.txt for CI to upload as an artifact.
package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/injectfs"
)

// chaosDefaultSeed pins the default run; CHAOS_SEED overrides it.
const chaosDefaultSeed = 20260808

// chaosSeed resolves the run seed.
func chaosSeed(t *testing.T) int64 {
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		return n
	}
	return chaosDefaultSeed
}

// chaosPanicker decides, under a seeded mutex-guarded rng, whether a chaos
// site detonates. The rate is per site visit, so it is kept far below the
// I/O fault rates: oracle sites fire thousands of times per build.
type chaosPanicker struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
	hits int64
}

func (c *chaosPanicker) hook(site string) {
	c.mu.Lock()
	fire := c.rng.Float64() < c.rate
	if fire {
		c.hits++
	}
	c.mu.Unlock()
	if fire {
		panic("chaos: injected panic at " + site)
	}
}

func (c *chaosPanicker) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

func (c *chaosPanicker) setRate(r float64) {
	c.mu.Lock()
	c.rate = r
	c.mu.Unlock()
}

// chaosSpec derives one deterministic small build spec from the run rng.
func chaosSpec(rng *rand.Rand, i int64) JobSpec {
	n := 20 + rng.Intn(16)
	return JobSpec{
		Generator:   &GeneratorSpec{Name: "random", N: n, M: n * (3 + rng.Intn(2)), Seed: i},
		Stretch:     3,
		Faults:      1 + rng.Intn(2),
		Parallelism: []int{0, 2, 4}[rng.Intn(3)],
	}
}

// specKey canonicalizes a spec for the digest map.
func specKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st statusResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status %s returned %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spannerDigest fetches a done job's spanner and returns its graph digest.
func spannerDigest(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	var sp spannerResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/spanner", nil, &sp); code != http.StatusOK {
		t.Fatalf("spanner %s returned %d", id, code)
	}
	h, err := graph.Decode(strings.NewReader(sp.Spanner))
	if err != nil {
		t.Fatalf("job %s spanner does not decode: %v", id, err)
	}
	return h.Digest()
}

func TestChaosEndToEnd(t *testing.T) {
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			// CI uploads this artifact so the failing run is reproducible
			// with CHAOS_SEED.
			_ = os.WriteFile("chaos_failure_seed.txt",
				[]byte(fmt.Sprintf("CHAOS_SEED=%d\n", seed)), 0o644)
		}
	}()

	// Job budget: >= 200 full, 40 in -short, split 60/20/20 across phases.
	total := int64(200)
	if testing.Short() {
		total = 40
	}
	phase1, phase2 := total*6/10, total*2/10
	phase3 := total - phase1 - phase2

	rng := rand.New(rand.NewSource(seed))
	ifs := injectfs.New(seed + 1)
	panicker := &chaosPanicker{rng: rand.New(rand.NewSource(seed + 2)), rate: 0.0005}
	storeDir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		Workers:            4,
		StoreDir:           storeDir,
		StoreFS:            ifs,
		StoreProbeInterval: 5 * time.Millisecond,
		StoreRetrySeed:     seed + 3,
		Chaos:              panicker.hook,
	})

	// digests records spec -> spanner digest for every job that completed
	// under chaos; the clean-room phases must reproduce each exactly.
	digests := make(map[string]string)
	states := make(map[State]int64)

	// --- Phase 1: probabilistic chaos -----------------------------------
	// Disk faults at >= 10% rates on reads and writes, torn renames, slow
	// writes, a low-rate panic injector underneath every greedy build, and
	// a sprinkle of unmeetable deadlines.
	ifs.SetRates(injectfs.Rates{ReadErr: 0.15, WriteErr: 0.15, TornRename: 0.10, SlowWrite: 0.10})
	for i := int64(0); i < phase1; i++ {
		spec := chaosSpec(rng, i)
		if rng.Intn(10) == 0 {
			// An effectively-zero deadline: deterministic deadline_exceeded
			// unless the result comes from a cache tier (then it is done
			// before the deadline machinery is consulted).
			spec.DeadlineMs = 1
		}
		sub := submitJob(t, ts, spec)
		st := waitTerminal(t, ts, sub.ID)
		states[st.State]++
		switch st.State {
		case StateDone:
			if spec.DeadlineMs == 0 {
				key := specKey(t, spec)
				d := spannerDigest(t, ts, sub.ID)
				if prev, ok := digests[key]; ok && prev != d {
					t.Fatalf("same spec produced two digests under chaos: %s vs %s", prev, d)
				}
				digests[key] = d
			}
		case StateFailed:
			if !strings.Contains(st.Error, "panic") && !strings.Contains(st.Error, "chaos") {
				t.Errorf("job %s failed for a non-injected reason: %q", sub.ID, st.Error)
			}
		case StateDeadline:
			if spec.DeadlineMs == 0 {
				t.Errorf("job %s exceeded a deadline it never had", sub.ID)
			}
		default:
			t.Errorf("job %s ended %s; nothing in this phase cancels jobs", sub.ID, st.State)
		}
	}
	if len(digests) == 0 {
		t.Fatal("phase 1 produced no successful builds to verify")
	}
	t.Logf("phase 1 (seed %d): states=%v, %d unique successful specs, panics=%d",
		seed, states, len(digests), panicker.count())

	// --- Phase 2: forced failure burst -> breaker trip ------------------
	// Unconditional ENOSPC on every write guarantees the trip regardless of
	// what the phase-1 dice consumed. Jobs must keep completing memory-only.
	// Panic injection stops here: phases 2 and 3 assert the store's fate
	// alone, so every job must succeed.
	panicker.setRate(0)
	ifs.Clear()
	ifs.ForceWriteFailures(100000, syscall.ENOSPC)
	tripDeadline := time.Now().Add(60 * time.Second)
	var phase2Jobs int64
	for !srv.store.Degraded() {
		spec := chaosSpec(rng, 1_000_000+phase2Jobs)
		sub := submitJob(t, ts, spec)
		st := waitTerminal(t, ts, sub.ID)
		if st.State != StateDone {
			t.Fatalf("job %s ended %s during the write-failure burst; store faults must never fail jobs", sub.ID, st.State)
		}
		digests[specKey(t, spec)] = spannerDigest(t, ts, sub.ID)
		phase2Jobs++
		if time.Now().After(tripDeadline) {
			t.Fatal("breaker never tripped under unconditional write failures")
		}
	}
	for ; phase2Jobs < phase2; phase2Jobs++ {
		// Degraded mode: submissions still complete, persistence drops.
		spec := chaosSpec(rng, 1_000_000+phase2Jobs)
		sub := submitJob(t, ts, spec)
		if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
			t.Fatalf("job %s ended %s while the store was degraded", sub.ID, st.State)
		} else {
			digests[specKey(t, spec)] = spannerDigest(t, ts, sub.ID)
		}
	}
	m := getMetrics(t, ts)
	if !m.StoreDegraded || m.StoreBreakerTrips < 1 {
		t.Fatalf("after the burst: degraded=%v trips=%d", m.StoreDegraded, m.StoreBreakerTrips)
	}

	// --- Phase 3: recovery -> re-arm, persistence resumes ---------------
	ifs.Clear()
	rearmDeadline := time.Now().Add(60 * time.Second)
	for srv.store.Degraded() {
		if time.Now().After(rearmDeadline) {
			t.Fatal("breaker never re-armed after the disk recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	writesBefore := getMetrics(t, ts).StoreWrites
	for i := int64(0); i < phase3; i++ {
		spec := chaosSpec(rng, 2_000_000+i)
		sub := submitJob(t, ts, spec)
		if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
			t.Fatalf("job %s ended %s after recovery", sub.ID, st.State)
		}
		digests[specKey(t, spec)] = spannerDigest(t, ts, sub.ID)
	}
	m = getMetrics(t, ts)
	if m.StoreWrites <= writesBefore {
		t.Errorf("persistence did not resume after re-arm: writes %d -> %d", writesBefore, m.StoreWrites)
	}
	if m.PanicsTotal != int64(states[StateFailed]) {
		t.Errorf("panics_total=%d but %d jobs failed; every failure should be an injected panic",
			m.PanicsTotal, states[StateFailed])
	}
	t.Logf("run totals: jobs=%d verified-specs=%d breaker-trips=%d retries=%d panics=%d",
		phase1+phase2Jobs+phase3, len(digests), m.StoreBreakerTrips, m.StoreRetriesTotal, m.PanicsTotal)

	// --- Clean room 1: same store directory, real filesystem ------------
	// A fresh server over the chaos-era store must come up (torn and
	// truncated leftovers quarantined, never served) and answer every spec
	// with the digest recorded under chaos — via the store where records
	// survived, via rebuild where they did not.
	srv.Close()
	warm, warmTS := newTestServer(t, Config{Workers: 4, StoreDir: storeDir})
	for key, want := range digests {
		var spec JobSpec
		if err := json.Unmarshal([]byte(key), &spec); err != nil {
			t.Fatal(err)
		}
		sub := submitJob(t, warmTS, spec)
		st := waitTerminal(t, warmTS, sub.ID)
		if st.State != StateDone {
			t.Fatalf("clean warm rebuild of %s ended %s (%s)", key, st.State, st.Error)
		}
		if got := spannerDigest(t, warmTS, sub.ID); got != want {
			t.Errorf("spec %s: chaos digest %s != warm-store digest %s", key, want, got)
		}
	}
	wm := getMetrics(t, warmTS)
	t.Logf("warm reopen: store_hits=%d store_corrupt=%d rebuilt=%d",
		wm.StoreHits, wm.StoreCorruptTotal, wm.BuildsTotal)
	warm.Close()

	// --- Clean room 2: no store, pure rebuild ---------------------------
	// Byte-identical digests from a fully uninjected rebuild prove the
	// chaos-era successes were correct, not merely internally consistent.
	_, coldTS := newTestServer(t, Config{Workers: 4})
	for key, want := range digests {
		var spec JobSpec
		if err := json.Unmarshal([]byte(key), &spec); err != nil {
			t.Fatal(err)
		}
		sub := submitJob(t, coldTS, spec)
		st := waitTerminal(t, coldTS, sub.ID)
		if st.State != StateDone {
			t.Fatalf("clean cold rebuild of %s ended %s (%s)", key, st.State, st.Error)
		}
		if got := spannerDigest(t, coldTS, sub.ID); got != want {
			t.Errorf("spec %s: chaos digest %s != uninjected rebuild digest %s", key, want, got)
		}
	}
}
