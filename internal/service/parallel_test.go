package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// parallelSpec is smallSpec with quantized weights implied by the random
// generator's unit weights (one giant same-weight batch) plus a worker
// count, exercising the speculative path end to end.
func parallelSpec(seed int64, p int) JobSpec {
	s := smallSpec(seed)
	s.Parallelism = p
	return s
}

// TestParallelJobEndToEnd submits a parallel build and checks the job
// completes with speculation stats surfaced in both the job status and
// /metrics, and that its spanner is byte-identical to a sequential build of
// the same spec on a second server (no shared cache, so both really build).
func TestParallelJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, seqTS := newTestServer(t, Config{Workers: 1})

	sub := submitJob(t, ts, parallelSpec(5, 4))
	st := waitState(t, ts, sub.ID, StateDone)
	if st.Stats == nil {
		t.Fatal("done job has no stats")
	}
	// The random generator emits unit weights: the whole scan is one batch.
	if st.Stats.SpecBatches < 1 || st.Stats.SpecQueries == 0 {
		t.Fatalf("parallel build reported no speculation: %+v", *st.Stats)
	}
	if st.Stats.SpecHits+st.Stats.SpecWaste != st.Stats.SpecQueries {
		t.Fatalf("spec accounting leak: %+v", *st.Stats)
	}
	if st.Stats.WitnessHits+st.Stats.WitnessMisses > 0 && st.Stats.WitnessHitRate <= 0 {
		t.Fatalf("witness hit rate not surfaced: %+v", *st.Stats)
	}
	m := getMetrics(t, ts)
	if m.SpecBatches < 1 || m.SpecQueries != st.Stats.SpecQueries ||
		m.SpecHits != st.Stats.SpecHits || m.SpecWaste != st.Stats.SpecWaste {
		t.Fatalf("metrics do not aggregate speculation counters: %+v vs %+v", m, *st.Stats)
	}
	if m.SpecRounds != st.Stats.SpecRounds || m.SpecRequeries != st.Stats.SpecRequeries {
		t.Fatalf("metrics do not aggregate round counters: %+v vs %+v", m, *st.Stats)
	}
	if m.WitnessSeedTries != st.Stats.WitnessSeedTries || m.WitnessSeedHits != st.Stats.WitnessSeedHits {
		t.Fatalf("metrics do not aggregate seed counters: %+v vs %+v", m, *st.Stats)
	}

	seqSub := submitJob(t, seqTS, parallelSpec(5, 0))
	if seqSub.Cached {
		t.Fatal("second server answered from a cache it cannot have")
	}
	waitState(t, seqTS, seqSub.ID, StateDone)
	parDigest, _, parKept := spannerDigestOf(t, ts, sub.ID)
	seqDigest, _, seqKept := spannerDigestOf(t, seqTS, seqSub.ID)
	if parDigest != seqDigest || !reflect.DeepEqual(parKept, seqKept) {
		t.Fatal("parallel build differs from sequential build")
	}
}

// postJobRaw submits a raw JSON job body, as a client that sets fields the
// Go JobSpec would omit.
func postJobRaw(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub, resp.StatusCode
}

// TestParallelismSharesCacheKey verifies the determinism guarantee is
// exploited by the cache: a result built sequentially answers a parallel
// submission of the same spec (and vice versa) without a rebuild, and the
// spanners are identical. A "parallelism":4,"pipeline":4 body — pipeline is
// accepted and ignored — lands on the same cache key and spanner digest as
// the P=0 build, whether it coalesces onto it in flight or hits the cache.
func TestParallelismSharesCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	seqSub := submitJob(t, ts, parallelSpec(9, 0))
	waitState(t, ts, seqSub.ID, StateDone)
	seqDigest, seqSpanner, seqKept := spannerDigestOf(t, ts, seqSub.ID)

	parSub := submitJob(t, ts, parallelSpec(9, 8))
	if !parSub.Cached {
		t.Fatalf("parallel submission of an already-built spec did not hit the cache: %+v", parSub)
	}
	parDigest, parSpanner, parKept := spannerDigestOf(t, ts, parSub.ID)
	if !reflect.DeepEqual(seqKept, parKept) || seqSpanner != parSpanner || seqDigest != parDigest {
		t.Fatal("cached parallel result differs from sequential build")
	}

	const gen = `"generator":{"name":"random","n":30,"m":150,"seed":10},"stretch":3,"faults":1`
	first, code := postJobRaw(t, ts, `{`+gen+`}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("P=0 submission returned %d", code)
	}
	second, code := postJobRaw(t, ts, `{`+gen+`,"parallelism":4,"pipeline":4}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("parallelism+pipeline submission returned %d", code)
	}
	if !second.Cached && !(second.Deduplicated && second.ID == first.ID) {
		t.Fatalf("parallelism+pipeline submission neither coalesced onto %s nor hit the cache: %+v", first.ID, second)
	}
	st0, st4 := waitState(t, ts, first.ID, StateDone), waitState(t, ts, second.ID, StateDone)
	if st0.GraphDigest != st4.GraphDigest {
		t.Fatalf("graph digests differ: %s vs %s", st0.GraphDigest, st4.GraphDigest)
	}
	d0, _, kept0 := spannerDigestOf(t, ts, first.ID)
	d4, _, kept4 := spannerDigestOf(t, ts, second.ID)
	if d0 != d4 || !reflect.DeepEqual(kept0, kept4) {
		t.Fatal("parallelism+pipeline submission served a different spanner")
	}
}

// TestParallelismValidation pins the spec validation: negative or oversized
// worker counts and non-greedy algorithms are rejected, as are pipeline
// values outside the range the ignored field has always accepted, or set
// without workers.
func TestParallelismValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []JobSpec{
		func() JobSpec { s := smallSpec(1); s.Parallelism = -1; return s }(),
		func() JobSpec { s := smallSpec(1); s.Parallelism = maxParallelism + 1; return s }(),
		func() JobSpec {
			s := smallSpec(1)
			s.Parallelism = 4
			s.Algorithm = AlgoConservative
			return s
		}(),
		func() JobSpec { s := parallelSpec(1, 4); s.Pipeline = -1; return s }(),
		func() JobSpec { s := parallelSpec(1, 4); s.Pipeline = maxPipeline + 1; return s }(),
		func() JobSpec { s := smallSpec(1); s.Pipeline = 2; return s }(), // pipeline without parallelism
	}
	for i, spec := range bad {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, nil); code != http.StatusBadRequest {
			t.Fatalf("bad spec %d accepted with code %d", i, code)
		}
	}
}

// TestPipelineJobEndToEnd submits a parallel build that sets the ignored
// pipeline field at both ends of its accepted range: each builds (or hits
// the cache) like any parallel job, and no value leaks into the cache key.
func TestPipelineJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	spec := parallelSpec(11, 4)
	spec.Pipeline = maxPipeline
	sub := submitJob(t, ts, spec)
	st := waitState(t, ts, sub.ID, StateDone)
	if st.Stats == nil || st.Stats.SpecBatches < 1 {
		t.Fatalf("parallel build with pipeline set reported no speculation: %+v", st.Stats)
	}
	if st.Stats.SpecHits+st.Stats.SpecWaste != st.Stats.SpecQueries {
		t.Fatalf("spec accounting leak: %+v", *st.Stats)
	}

	for _, p := range []int{0, 1} {
		spec.Pipeline = p
		if again := submitJob(t, ts, spec); !again.Cached {
			t.Fatalf("pipeline %d leaked into the cache key: %+v", p, again)
		}
	}
}
