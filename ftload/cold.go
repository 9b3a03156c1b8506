package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/service"
	"github.com/ftspanner/ftspanner/internal/store"
)

// coldKinds is the jobs-cold mix, one entry per job in a round of
// len(coldKinds) jobs: mostly unit-weight random graphs (one same-weight
// run) at f=1 or 2, a quarter of them on the parallel engine; some
// geometric graphs (distinct weights); some edge-fault jobs; and a small
// conservative-greedy share. Every client runs each round in its own
// seeded order, so the shares are exact in every run.
var coldKinds = []struct {
	gen         string
	faults      int
	parallelism int
	mode, algo  string
}{
	{gen: "random", faults: 2}, {gen: "random", faults: 1, parallelism: 2}, {gen: "random", faults: 1},
	{gen: "random", faults: 2}, {gen: "random", faults: 1}, {gen: "random", faults: 1, parallelism: 2},
	{gen: "random", faults: 2}, {gen: "random", faults: 1}, {gen: "random", faults: 1},
	{gen: "random", faults: 2, parallelism: 2}, {gen: "random", faults: 1}, {gen: "random", faults: 1},
	{gen: "random", faults: 2}, {gen: "random", faults: 1, parallelism: 2},
	{gen: "geometric", faults: 2}, {gen: "geometric", faults: 1}, {gen: "geometric", faults: 1},
	{gen: "random", faults: 1, mode: "edge"}, {gen: "random", faults: 1, mode: "edge"},
	{gen: "random", faults: 1, algo: service.AlgoConservative},
}

// coldStream yields one client's jobs-cold specs. Every spec carries a
// fresh generator seed, so every job misses the cache and runs a full
// build.
type coldStream struct {
	rng    *rand.Rand
	s      sizes
	seed   int64
	stream int
	order  []int
	j      int
}

func newColdStream(seed int64, stream int, s sizes) *coldStream {
	return &coldStream{rng: newRand(subSeed(seed, stream, 0)), s: s, seed: seed, stream: stream}
}

func (cs *coldStream) next() service.JobSpec {
	if len(cs.order) == 0 {
		cs.order = cs.rng.Perm(len(coldKinds))
	}
	k := coldKinds[cs.order[0]]
	cs.order = cs.order[1:]
	cs.j++
	g := &service.GeneratorSpec{Name: k.gen, Seed: subSeed(cs.seed, cs.stream, cs.j)}
	if k.gen == "geometric" {
		g.N, g.Radius = between(cs.rng, cs.s.geoN), cs.s.geoRadius
	} else {
		g.N, g.M = between(cs.rng, cs.s.coldN), between(cs.rng, cs.s.coldM)
	}
	return service.JobSpec{Generator: g, Stretch: 3, Faults: k.faults, Parallelism: k.parallelism,
		Mode: k.mode, Algorithm: k.algo}
}

// between draws uniformly from the closed range r.
func between(rng *rand.Rand, r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }

// runCold drives the jobs-cold workload against one node.
func runCold(rc *runCtx) (*runData, error) {
	rd := &runData{}
	var reps []*replica
	defer func() { stopReplicas(reps) }()
	admin := newClient(nil)
	for i := 0; i < coldSetupRepeats; i++ {
		stopReplicas(reps)
		reps = nil
		t := time.Now()
		r, err := startReplicas(filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)), 1, rc.workers)
		if err != nil {
			return nil, err
		}
		reps = r
		// Set-up ends when the node has answered its first request.
		if _, err := scrape(admin, reps); err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, time.Since(t))
	}
	base := reps[0].base
	if err := coldWarmup(rc, base); err != nil {
		return nil, err
	}
	before, err := scrape(admin, reps)
	if err != nil {
		return nil, err
	}

	window, tracedFrom := rc.openWindow()
	rd.window = window
	perClient := make([][]*jobOp, rc.clients)
	parallel(rc.clients, func(c int) {
		cl := newClient(rc.wrap)
		specs := newColdStream(rc.seed, streamClient+c, rc.sizes)
		for window.running() {
			body, _ := json.Marshal(specs.next()) // a JobSpec always marshals
			traced := rc.trace && !time.Now().Before(tracedFrom)
			o := runJob(cl, base, body, traced, false)
			o.fetchTrace(cl, base)
			if !o.failed() {
				var err error
				if o.got, err = reduceAnswer(o.answer); err != nil {
					o.fail("%v", err)
				}
			}
			o.answer = nil
			perClient[c] = append(perClient[c], o)
		}
	})
	after, err := scrape(admin, reps)
	if err != nil {
		return nil, err
	}
	var ops []*jobOp
	for _, cs := range perClient {
		ops = append(ops, cs...)
	}

	parallel(rc.workers, func(c int) {
		for i := c; i < len(ops); i += rc.workers {
			verifyColdJob(ops[i])
		}
	})
	if rc.trace {
		rd.layers = newLedger()
		if err := coldLedger(rc, rd.layers, ops, sum(after).minus(sum(before)), after); err != nil {
			return nil, err
		}
	}
	for _, o := range ops {
		rd.ops = append(rd.ops, o.op)
	}
	if rc.trace {
		overhead(rd.layers, rd.ops, classJob)
	}
	return rd, nil
}

// coldWarmup runs the warm-up jobs on the measured system, after set-up is
// timed. They are distinct from every measured job.
func coldWarmup(rc *runCtx, base string) error {
	errs := make([]error, rc.clients)
	parallel(rc.clients, func(c int) {
		cl := newClient(nil)
		specs := newColdStream(rc.seed, streamWarm+c, rc.sizes)
		for j := c; j < rc.sizes.warmJobs; j += rc.clients {
			body, _ := json.Marshal(specs.next()) // a JobSpec always marshals
			if o := runJob(cl, base, body, false, false); o.failed() && errs[c] == nil {
				errs[c] = fmt.Errorf("warm-up job: %s", o.err)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyColdJob checks one job's answer against a clean-room greedy of the
// same spec, and a traced job's reported graph digest against the
// clean-room input's.
func verifyColdJob(o *jobOp) {
	if o.failed() {
		return
	}
	spec, g, err := coldInput(o)
	if err != nil {
		o.fail("%v", err)
		return
	}
	want, err := cleanRoom(g, spec.Stretch, spec.Faults, spec.Mode, spec.Algorithm, nil)
	if err != nil {
		o.fail("clean-room greedy: %v", err)
		return
	}
	if err := o.got.check(want.Spanner.Digest(), want.Kept); err != nil {
		o.fail("%v", err)
		return
	}
	if o.status != nil && o.status.GraphDigest != g.Digest() {
		o.fail("server graph digest %.12s, clean-room %.12s", o.status.GraphDigest, g.Digest())
	}
}

// coldInput decodes a job's spec and materializes its input graph.
func coldInput(o *jobOp) (service.JobSpec, *graph.Graph, error) {
	var spec service.JobSpec
	if err := json.Unmarshal(o.body, &spec); err != nil {
		return spec, nil, fmt.Errorf("spec: %v", err)
	}
	g, err := materialize(&spec)
	if err != nil {
		return spec, nil, fmt.Errorf("clean-room materialize: %v", err)
	}
	return spec, g, nil
}

// replayColdJob replays, timed and one at a time, the layer calls the
// server made for a traced job, and books them with the job's
// server-reported queue and build times. The server's persist is not
// booked: it runs after the job is done, beside the client's spanner GET,
// so it is no part of the job's latency; store.persist_ms reports it.
func replayColdJob(o *jobOp, l *ledger, scratch *store.Store) error {
	layers := []part{l.timed("service.spec_decode_us", func() { decodeSpec(o.body) })}
	var spec service.JobSpec
	_ = json.Unmarshal(o.body, &spec) // built by this benchmark
	var g *graph.Graph
	var err error
	layers = append(layers, l.timed("gen.materialize_us", func() { g, err = materialize(&spec) }))
	if err != nil {
		return err
	}
	layers = append(layers, l.timed("graph.digest_us", func() { g.Digest() }))
	t := time.Now()
	cons := fault.Constructions()
	want, err := cleanRoom(g, spec.Stretch, spec.Faults, spec.Mode, spec.Algorithm, l)
	if err != nil {
		return err
	}
	l.sample("core.greedy_ms", durMS(time.Since(t)))
	l.sample("fault.constructions", float64(fault.Constructions()-cons))
	var text string
	layers = append(layers, l.timed("graph.encode_us", func() { text = encodeGraph(want.Spanner) }))
	layers = append(layers, l.timed("service.response_encode_us", func() {
		encodeResponse(jobAnswer{ID: o.id, Spanner: text, Kept: want.Kept})
	}))
	l.timed("store.put_us", func() {
		_ = scratch.Put(&store.Record{Key: "job|" + o.id, NumVertices: g.NumVertices(),
			InputEdges: g.NumEdges(), SpannerDigest: want.Spanner.Digest(), Kept: want.Kept})
	})
	st := o.status.Stats
	layers = append(layers,
		part{name: "service.queue_wait", d: msDur(st.QueueMS)},
		part{name: "core.build", d: msDur(st.BuildMS)})
	l.account(&o.op, o.trace, o.httpParts(), layers)
	return nil
}

func msDur(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// coldLedger replays up to maxReplays traced jobs and sets the jobs-cold
// counters: server-reported job stats, window /metrics deltas and the live
// histograms beside their ledger twins.
func coldLedger(rc *runCtx, l *ledger, ops []*jobOp, win counters, after []serverMetrics) error {
	scratch, err := store.Open(filepath.Join(rc.dir, "scratch-store"), 0)
	if err != nil {
		return err
	}
	defer scratch.Close()
	var traced []*jobOp
	for _, o := range ops {
		if o.traced && !o.failed() && o.status != nil && o.status.Stats != nil {
			traced = append(traced, o)
		}
	}
	var oracle, dijkstras, wHits, wMiss float64
	var parJobs, parScanned, specHits, specReq, specWaste float64
	for j, o := range traced {
		if j%max(1, len(traced)/maxReplays) == 0 {
			if err := replayColdJob(o, l, scratch); err != nil {
				return err
			}
		}
		st := o.status.Stats
		l.sample("service.queue_wait_ms", st.QueueMS)
		l.sample("service.queue_wait_p99_ms", st.QueueMS)
		l.sample("core.build_ms", st.BuildMS)
		oracle += float64(st.OracleCalls)
		dijkstras += float64(st.Dijkstras)
		wHits += float64(st.WitnessHits)
		wMiss += float64(st.WitnessMisses)
		if st.SpecQueries > 0 {
			parJobs++
			parScanned += float64(st.EdgesScanned)
			specHits += float64(st.SpecHits)
			specReq += float64(st.SpecRequeries)
			specWaste += float64(st.SpecWaste)
		}
	}
	// The server persists a result after the job is done, beside the
	// client's spanner GET, so a job's status rarely holds its persist
	// time yet; the live persist histogram does (its whole life).
	l.put("store.persist_ms", after[0].Latency.Persist.P50MS, int(after[0].Latency.Persist.Count))
	l.ratio("fault.oracle_calls", oracle, float64(len(traced)))
	l.ratio("fault.witness_hit_ratio", wHits, wHits+wMiss)
	l.ratio("sssp.dijkstras_per_oracle_call", dijkstras, oracle)
	l.ratio("core.edges_scanned", parScanned, parJobs)
	l.ratio("core.spec_hit_ratio", specHits, specHits+specReq)
	l.ratio("core.spec_waste", specWaste, parJobs)
	l.ratio("service.cache_hit_ratio", float64(win.cacheHits), float64(win.submitted))
	l.ratio("store.writes_per_op", float64(win.storeWrites), float64(len(ops)))
	sm := scratch.Snapshot()
	l.ratio("store.bytes_per_write", float64(sm.Bytes), float64(sm.Writes))
	reconcile(l, after)
	return nil
}

// overhead sets ledger.tracing_overhead_share: the traced half's p50 of
// the main class over the untraced half's, minus one. Tracing adds no work
// inside a timed request (a traced job's status and trace GETs follow its
// latency, and replays run after the window), so the figure mostly shows
// drift between the two halves of the window; a cost tracing moved into
// the requests would show on top of it.
func overhead(l *ledger, ops []op, class string) {
	var plain, traced []float64
	for _, o := range ops {
		if o.class != class || o.failed() {
			continue
		}
		if o.traced {
			traced = append(traced, durMS(o.lat))
		} else {
			plain = append(plain, durMS(o.lat))
		}
	}
	if p := median(plain); p > 0 && len(traced) > 0 {
		l.put("ledger.tracing_overhead_share", median(traced)/p-1, len(traced))
	}
}

// reconcile sets each /metrics histogram's p50 beside the ledger's own
// figure for the same operation. With several replicas the live p50 is the
// sample-count-weighted mean of the replicas' p50s. Live histograms cover
// the server's whole life, set-up included.
func reconcile(l *ledger, ms []serverMetrics) {
	type pick func(m *serverMetrics) (p50ms float64, n int64)
	live := func(f pick) (float64, int) {
		var num, den float64
		for i := range ms {
			p, n := f(&ms[i])
			num += p * float64(n)
			den += float64(n)
		}
		if den == 0 {
			return 0, 0
		}
		return num / den, int(den)
	}
	set := func(name string, scale float64, f pick, ledgerName string, ledgerScale float64) {
		v, n := live(f)
		l.put("reconcile."+name+".live_p50_"+unitOf(scale), v*scale, n)
		l.mu.Lock()
		xs := append([]float64(nil), l.samples[ledgerName]...)
		l.mu.Unlock()
		l.put("reconcile."+name+".ledger_p50_"+unitOf(scale), pct(xs, 0.5)*ledgerScale, len(xs))
	}
	set("build", 1, func(m *serverMetrics) (float64, int64) { return m.Latency.Build.P50MS, m.Latency.Build.Count },
		"core.build_ms", 1)
	set("store_put", 1, func(m *serverMetrics) (float64, int64) { return m.Latency.StorePut.P50MS, m.Latency.StorePut.Count },
		"store.put_us", 1e-3)
	set("store_get", 1, func(m *serverMetrics) (float64, int64) { return m.Latency.StoreGet.P50MS, m.Latency.StoreGet.Count },
		"store.get_us", 1e-3)
	set("oracle_query", 1e3, func(m *serverMetrics) (float64, int64) {
		return m.Latency.OracleQuery.P50MS, m.Latency.OracleQuery.Count
	}, "fault.oracle_query_us", 1)
	set("session_delta", 1, func(m *serverMetrics) (float64, int64) {
		return m.Latency.SessionDelta.P50MS, m.Latency.SessionDelta.Count
	}, "core.apply_batch_us", 1e-3)
}

func unitOf(scale float64) string {
	if scale == 1e3 {
		return "us"
	}
	return "ms"
}
