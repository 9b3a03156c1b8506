package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/service"
	"github.com/ftspanner/ftspanner/internal/store"
)

// Session parameters: the quantized fixture's stretch and fault budget.
const (
	sessStretch = 3
	sessFaults  = 2
)

// Session op mix: the share of delta batches and of session reads; the
// rest are cross-jobs. Delta batches are the majority, with reads and
// cross-jobs interleaved. wideShare is the share of batches whose first op
// has a uniformly random weight (a wide dirty suffix) instead of the top
// weight (a minimal one).
const (
	deltaShare = 0.6
	readShare  = 0.2
	wideShare  = 0.05
)

// deltaOp and deltaRequest mirror the POST /v1/sessions/{id}/deltas body.
type deltaOp struct {
	Op     string  `json:"op"`
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"weight,omitempty"`
}

type deltaRequest struct {
	Deltas []deltaOp `json:"deltas"`
}

// deltaReply is the part of the deltas answer the checks and the ledger
// read.
type deltaReply struct {
	LiveEdges     int     `json:"live_edges"`
	Kept          int     `json:"kept"`
	Digest        string  `json:"digest"`
	SuffixLen     int     `json:"suffix_len"`
	OracleQueries int64   `json:"oracle_queries"`
	ShortcutKeeps int     `json:"shortcut_keeps"`
	ShortcutDrops int     `json:"shortcut_drops"`
	FullRebuild   bool    `json:"full_rebuild"`
	OracleReused  bool    `json:"oracle_reused"`
	OracleBuilt   bool    `json:"oracle_built"`
	DurationMS    float64 `json:"duration_ms"`
}

// sessOp is one session-stream request.
type sessOp struct {
	op
	batch core.Batch  // delta
	reply *deltaReply // delta
	body  []byte      // cross-job spec, traced ops only
}

// checkpoint is a session answer kept for the clean-room check, with the
// mirror graph it must match.
type checkpoint struct {
	o      *sessOp // nil for the end-of-run check
	answer []byte
	graph  *graph.Graph
}

// pairSet is an indexable set of vertex pairs for uniform draws.
type pairSet struct {
	list []([2]int)
	pos  map[[2]int]int
}

func newPairSet() *pairSet { return &pairSet{pos: map[[2]int]int{}} }

func (s *pairSet) add(p [2]int) {
	if _, ok := s.pos[p]; !ok {
		s.pos[p] = len(s.list)
		s.list = append(s.list, p)
	}
}

func (s *pairSet) remove(p [2]int) {
	i, ok := s.pos[p]
	if !ok {
		return
	}
	last := s.list[len(s.list)-1]
	s.list[i], s.pos[last] = last, i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, p)
}

// sessClient is one closed-loop client with its own session and a mirror
// of the session's graph.
type sessClient struct {
	rc           *runCtx
	c            int
	cl           *http.Client
	base         string
	id           string
	mirror       *graph.Mutable
	live         *pairSet // every live pair
	top          *pairSet // live pairs at the top weight
	maxW         float64
	target       int // |E| the batches hover around
	digest       string
	rng          *rand.Rand
	checkRng     *rand.Rand
	checkpoints  []checkpoint
	ops          []*sessOp
	traceStart   *graph.Graph // mirror at the first traced op
	checkpointsN int
}

// sessionGraph builds client c's initial graph in the shape of ftbench's
// session fixture: a connected G(n, m) with weights quantized to `levels`
// integer levels.
func sessionGraph(rc *runCtx, c int) (*graph.Graph, error) {
	s := rc.sizes
	g, err := gen.ConnectedGNM(s.sessN, s.sessM, newRand(subSeed(rc.seed, streamSess+c, 0)))
	if err != nil {
		return nil, err
	}
	return gen.QuantizeWeights(g, s.levels, newRand(subSeed(rc.seed, streamSess+c, 1)))
}

// runSession drives the session-stream workload against one node.
func runSession(rc *runCtx) (*runData, error) {
	inits := make([]*graph.Graph, rc.clients)
	bodies := make([][]byte, rc.clients)
	for c := range inits {
		g, err := sessionGraph(rc, c)
		if err != nil {
			return nil, err
		}
		inits[c] = g
		bodies[c], _ = json.Marshal(service.SessionSpec{Graph: encodeGraph(g), Stretch: sessStretch, Faults: sessFaults}) // always marshals
	}
	rd := &runData{}
	var reps []*replica
	defer func() { stopReplicas(reps) }()
	ids := make([]string, rc.clients)
	for i := 0; i < setupRepeats; i++ {
		stopReplicas(reps)
		reps = nil
		t := time.Now()
		r, err := startReplicas(filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)), 1, rc.workers)
		if err != nil {
			return nil, err
		}
		reps = r
		errs := make([]error, rc.clients)
		parallel(rc.clients, func(c int) {
			var resp struct {
				ID string `json:"id"`
			}
			data, err := do(newClient(nil), http.MethodPost, reps[0].base+"/v1/sessions", bodies[c])
			if err == nil {
				err = json.Unmarshal(data, &resp)
			}
			ids[c], errs[c] = resp.ID, err
		})
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("create session: %w", err)
			}
		}
		rd.setups = append(rd.setups, time.Since(t))
	}

	clients := make([]*sessClient, rc.clients)
	for c := range clients {
		sc := &sessClient{rc: rc, c: c, cl: newClient(rc.wrap), base: reps[0].base, id: ids[c],
			mirror: graph.NewMutableFrom(inits[c]), live: newPairSet(), top: newPairSet(),
			target: inits[c].NumEdges(), digest: inits[c].Digest(),
			rng:      newRand(subSeed(rc.seed, streamClient+c, 0)),
			checkRng: newRand(subSeed(rc.seed, streamCheck+c, 0))}
		for _, e := range inits[c].Edges() {
			sc.live.add(pair(e.U, e.V))
			sc.maxW = max(sc.maxW, e.Weight)
		}
		for _, e := range inits[c].Edges() {
			if e.Weight == sc.maxW {
				sc.top.add(pair(e.U, e.V))
			}
		}
		clients[c] = sc
	}
	// Warm-up ops run the same mix and are checked, not kept.
	errs := make([]error, rc.clients)
	parallel(rc.clients, func(c int) {
		for j := 0; j < rc.sizes.warmOps/rc.clients && errs[c] == nil; j++ {
			if o := clients[c].next(false); o.failed() {
				errs[c] = fmt.Errorf("warm-up %s: %s", o.class, o.err)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	admin := newClient(nil)
	before, err := scrape(admin, reps)
	if err != nil {
		return nil, err
	}
	window, tracedFrom := rc.openWindow()
	rd.window = window
	parallel(rc.clients, func(c int) {
		sc := clients[c]
		for window.running() {
			traced := rc.trace && !time.Now().Before(tracedFrom)
			if traced && sc.traceStart == nil {
				sc.traceStart, _ = sc.mirror.Materialize()
			}
			sc.ops = append(sc.ops, sc.next(traced))
		}
	})
	after, err := scrape(admin, reps)
	if err != nil {
		return nil, err
	}

	// Clean-room checks: the seeded checkpoints, then every session's
	// final spanner against a greedy of its mirror. A failed final check
	// is a failed op of its own.
	final := make([]string, rc.clients)
	parallel(rc.clients, func(c int) {
		sc := clients[c]
		answer, err := do(sc.cl, http.MethodGet, sc.base+"/v1/sessions/"+sc.id+"/spanner", nil)
		if err != nil {
			final[c] = fmt.Sprintf("session %s final read: %v", sc.id, err)
			return
		}
		mat, _ := sc.mirror.Materialize()
		sc.checkpoints = append(sc.checkpoints, checkpoint{answer: answer, graph: mat})
		for _, cp := range sc.checkpoints {
			if err := checkSession(cp.answer, cp.graph); err != nil {
				if cp.o != nil {
					cp.o.fail("checkpoint: %v", err)
				} else {
					final[c] = fmt.Sprintf("session %s final check: %v", sc.id, err)
				}
			}
		}
	})
	for _, f := range final {
		if f != "" {
			rd.failedChecks = append(rd.failedChecks, f)
		}
	}
	if rc.trace {
		rd.layers = newLedger()
		if err := sessionLedger(rc, rd.layers, clients, sum(after).minus(sum(before)), after); err != nil {
			return nil, err
		}
	}
	for _, sc := range clients {
		for _, o := range sc.ops {
			rd.ops = append(rd.ops, o.op)
		}
	}
	if rc.trace {
		overhead(rd.layers, rd.ops, classDelta)
	}
	return rd, nil
}

func pair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// checkSession compares a session spanner answer with a clean-room greedy
// of the graph it must be the spanner of.
func checkSession(answer []byte, g *graph.Graph) error {
	var a spannerReply
	if err := json.Unmarshal(answer, &a); err != nil {
		return fmt.Errorf("session answer: %v", err)
	}
	if a.Digest != g.Digest() {
		return fmt.Errorf("session graph digest %.12s, mirror %.12s", a.Digest, g.Digest())
	}
	sp, err := graph.Decode(strings.NewReader(a.Spanner))
	if err != nil {
		return fmt.Errorf("session answer: %v", err)
	}
	want, err := core.Greedy(g, core.Options{Stretch: sessStretch, Faults: sessFaults, Mode: fault.Vertices})
	if err != nil {
		return err
	}
	if got, exp := sp.Digest(), want.Spanner.Digest(); got != exp {
		return fmt.Errorf("session spanner digest %.12s, clean-room greedy %.12s", got, exp)
	}
	return nil
}

// next issues the client's next seeded op.
func (sc *sessClient) next(traced bool) *sessOp {
	switch x := sc.rng.Float64(); {
	case x < deltaShare:
		return sc.delta(traced)
	case x < deltaShare+readShare:
		return sc.read(traced)
	default:
		return sc.cross(traced)
	}
}

// randomAbsentPair draws a vertex pair with no live edge, untouched in
// this batch.
func (sc *sessClient) randomAbsentPair(touched map[[2]int]bool) ([2]int, bool) {
	n := sc.mirror.NumVertices()
	for try := 0; try < 1000; try++ {
		u, v := sc.rng.Intn(n), sc.rng.Intn(n)
		p := pair(u, v)
		if u == v || touched[p] {
			continue
		}
		if _, ok := sc.mirror.LiveBetween(u, v); !ok {
			return p, true
		}
	}
	return [2]int{}, false
}

// randomFrom draws an untouched pair of s.
func (sc *sessClient) randomFrom(s *pairSet, touched map[[2]int]bool) ([2]int, bool) {
	for try := 0; try < 100 && len(s.list) > 0; try++ {
		if p := s.list[sc.rng.Intn(len(s.list))]; !touched[p] {
			return p, true
		}
	}
	return [2]int{}, false
}

// nextBatch draws a batch of 1-4 ops that keeps |E| near its start: mostly
// top-weight inserts and deletes, and with probability wideShare a first
// op at a uniformly random weight level or on a random live edge.
func (sc *sessClient) nextBatch() deltaRequest {
	k := 1 + sc.rng.Intn(4)
	wide := sc.rng.Float64() < wideShare
	touched := map[[2]int]bool{}
	liveN := sc.mirror.NumLiveEdges()
	var req deltaRequest
	for j := 0; j < k; j++ {
		insert := liveN < sc.target || (liveN == sc.target && sc.rng.Intn(2) == 0)
		isWide := wide && j == 0
		if insert {
			p, ok := sc.randomAbsentPair(touched)
			if !ok {
				continue
			}
			w := sc.maxW
			if isWide {
				w = float64(1 + sc.rng.Intn(int(sc.maxW)))
			}
			req.Deltas = append(req.Deltas, deltaOp{Op: service.SessionOpInsert, U: p[0], V: p[1], Weight: w})
			touched[p] = true
			liveN++
			continue
		}
		from := sc.top
		if isWide || len(sc.top.list) == 0 {
			from = sc.live
		}
		p, ok := sc.randomFrom(from, touched)
		if !ok {
			continue
		}
		req.Deltas = append(req.Deltas, deltaOp{Op: service.SessionOpDelete, U: p[0], V: p[1]})
		touched[p] = true
		liveN--
	}
	return req
}

// apply folds an accepted batch into the mirror and the pair sets.
func (sc *sessClient) apply(req deltaRequest) error {
	for _, d := range req.Deltas {
		p := pair(d.U, d.V)
		if d.Op == service.SessionOpInsert {
			if _, err := sc.mirror.Insert(d.U, d.V, d.Weight); err != nil {
				return err
			}
			sc.live.add(p)
			if d.Weight == sc.maxW {
				sc.top.add(p)
			}
			continue
		}
		if _, err := sc.mirror.Delete(d.U, d.V); err != nil {
			return err
		}
		sc.live.remove(p)
		sc.top.remove(p)
	}
	return nil
}

func (sc *sessClient) delta(traced bool) *sessOp {
	req := sc.nextBatch()
	body, _ := json.Marshal(req) // always marshals
	o := &sessOp{op: op{class: classDelta, traced: traced, start: time.Now()}}
	data, err := do(sc.cl, http.MethodPost, sc.base+"/v1/sessions/"+sc.id+"/deltas", body)
	o.lat = time.Since(o.start)
	if err != nil {
		o.fail("deltas: %v", err)
		return o
	}
	var reply deltaReply
	if err := json.Unmarshal(data, &reply); err != nil {
		o.fail("deltas answer: %v", err)
		return o
	}
	if err := sc.apply(req); err != nil {
		o.fail("mirror: %v", err)
		return o
	}
	if reply.LiveEdges != sc.mirror.NumLiveEdges() {
		o.fail("session has %d live edges, mirror %d", reply.LiveEdges, sc.mirror.NumLiveEdges())
	}
	sc.digest = reply.Digest
	o.reply = &reply
	for _, d := range req.Deltas {
		cd := core.Delta{Op: core.DeltaInsert, U: d.U, V: d.V, Weight: d.Weight}
		if d.Op == service.SessionOpDelete {
			cd = core.Delta{Op: core.DeltaDelete, U: d.U, V: d.V}
		}
		o.batch.Deltas = append(o.batch.Deltas, cd)
	}
	return o
}

// checkpointRate is the share of session reads kept as checkpoints, up to
// sizes.checkpoints per client.
const checkpointRate = 1.0 / 32

func (sc *sessClient) read(traced bool) *sessOp {
	o := &sessOp{op: op{class: classRead, traced: traced, start: time.Now()}}
	answer, err := do(sc.cl, http.MethodGet, sc.base+"/v1/sessions/"+sc.id+"/spanner", nil)
	o.lat = time.Since(o.start)
	if err != nil {
		o.fail("spanner: %v", err)
		return o
	}
	var a struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(answer, &a); err != nil {
		o.fail("spanner answer: %v", err)
		return o
	}
	if a.Digest != sc.digest {
		o.fail("read digest %.12s, last batch answered %.12s", a.Digest, sc.digest)
	}
	if sc.checkRng.Float64() < checkpointRate && sc.checkpointsN < sc.rc.sizes.checkpoints {
		sc.checkpointsN++
		mat, _ := sc.mirror.Materialize()
		sc.checkpoints = append(sc.checkpoints, checkpoint{o: o, answer: answer, graph: mat})
	}
	return o
}

func (sc *sessClient) cross(traced bool) *sessOp {
	mat, _ := sc.mirror.Materialize()
	body, _ := json.Marshal(service.JobSpec{Graph: encodeGraph(mat), Stretch: sessStretch, Faults: sessFaults}) // always marshals
	o := &sessOp{op: op{class: classCross, traced: traced, start: time.Now()}}
	data, err := do(sc.cl, http.MethodPost, sc.base+"/v1/jobs", body)
	o.lat = time.Since(o.start)
	if traced {
		o.body = body
	}
	if err != nil {
		o.fail("cross-job: %v", err)
		return o
	}
	var sr submitReply
	if err := json.Unmarshal(data, &sr); err != nil {
		o.fail("cross-job answer: %v", err)
		return o
	}
	if !sr.Cached || sr.State != string(service.StateDone) {
		o.fail("cross-job %s answered cached=%v state=%s", sr.ID, sr.Cached, sr.State)
	}
	if d := mat.Digest(); d != sc.digest {
		o.fail("mirror digest %.12s, session %.12s", d, sc.digest)
	}
	return o
}

// sessionLedger replays each client's traced ops on a fresh incremental
// engine started from the mirror at the traced half's start, timing the
// engine and the publish sequence for up to maxReplays ops per class. The
// clients replay one after the other, so replays never contend.
func sessionLedger(rc *runCtx, l *ledger, clients []*sessClient, win counters, after []serverMetrics) error {
	scratch, err := store.Open(filepath.Join(rc.dir, "scratch-store"), 0)
	if err != nil {
		return err
	}
	defer scratch.Close()
	for _, sc := range clients {
		if err := sc.replay(l, scratch); err != nil {
			return err
		}
	}
	var batches, suffix, shortcuts, queries, rebuilds, reused, built float64
	var plain []float64
	deltas := 0
	for _, sc := range clients {
		for _, o := range sc.ops {
			if o.class != classDelta {
				continue
			}
			deltas++
			if !o.traced && !o.failed() {
				plain = append(plain, durMS(o.lat))
			}
			if !o.traced || o.reply == nil {
				continue
			}
			r := o.reply
			batches++
			suffix += float64(r.SuffixLen)
			shortcuts += float64(r.ShortcutKeeps + r.ShortcutDrops)
			queries += float64(r.OracleQueries)
			if r.FullRebuild {
				rebuilds++
			}
			if r.OracleReused {
				reused++
			}
			if r.OracleBuilt {
				built++
			}
			l.sample("core.apply_batch_us", r.DurationMS*1e3)
		}
	}
	l.ratio("core.suffix_len", suffix, batches)
	l.ratio("core.shortcut_ratio", shortcuts, shortcuts+queries)
	l.ratio("core.full_rebuild_share", rebuilds, batches)
	l.ratio("fault.oracle_reuse_ratio", reused, reused+built)
	e2e := median(plain)
	if e2e > 0 {
		publish := l.quantile("service.session_publish_us", 0.5) / 1e3
		l.put("service.session_publish_share", publish/e2e, len(plain))
	}
	var live float64
	var liveN int64
	for _, m := range after {
		if m.Latency.SessionDelta.Count > liveN {
			live, liveN = m.Latency.SessionDelta.P50MS, m.Latency.SessionDelta.Count
		}
	}
	if e2e > 0 && liveN > 0 {
		l.put("service.session_delta_unreported_ms", e2e-live, len(plain))
	}
	l.ratio("service.cache_hit_ratio", float64(win.cacheHits), float64(win.submitted))
	l.ratio("store.writes_per_op", float64(win.storeWrites), float64(deltas))
	sm := scratch.Snapshot()
	l.ratio("store.bytes_per_write", float64(sm.Bytes), float64(sm.Writes))
	reconcile(l, after)
	return nil
}

// replay re-runs the client's traced ops on a fresh engine. Every batch is
// applied (the engine must follow the session); up to maxReplays ops per
// class are timed and booked. A batch whose kept count differs from the
// server's answer fails its op: the kept set must not depend on batch
// history.
func (sc *sessClient) replay(l *ledger, scratch *store.Store) error {
	if sc.traceStart == nil {
		return nil
	}
	eng, err := core.NewIncremental(sc.traceStart, core.IncrementalOptions{Stretch: sessStretch, Faults: sessFaults, Mode: fault.Vertices})
	if err != nil {
		return err
	}
	count := map[string]int{}
	for _, o := range sc.ops {
		if o.traced {
			count[o.class]++
		}
	}
	seen := map[string]int{}
	sampled := func(class string) bool {
		step := max(1, count[class]/maxReplays)
		seen[class]++
		return (seen[class]-1)%step == 0
	}
	for i, o := range sc.ops {
		if !o.traced {
			continue
		}
		take := sampled(o.class)
		switch o.class {
		case classDelta:
			if o.reply == nil {
				continue // failed before the engine answered: the session did not apply it
			}
			t := time.Now()
			res, err := eng.ApplyBatch(o.batch)
			if err != nil {
				return fmt.Errorf("replay batch: %w", err)
			}
			apply := time.Since(t)
			if res.Kept != o.reply.Kept {
				o.fail("kept %d, fresh engine replay keeps %d", o.reply.Kept, res.Kept)
			}
			if !take {
				continue
			}
			l.sample("core.apply_batch_replay_us", durUS(apply))
			l.timed("graph.mutable_materialize_us", func() { eng.Graph().Materialize() })
			publish := l.timed("service.session_publish_us", func() {
				mat, kept, err := eng.Current()
				if err != nil {
					return
				}
				digest := mat.Digest()
				sp := graph.New(mat.NumVertices())
				for _, id := range kept {
					e := mat.Edge(id)
					sp.MustAddEdge(e.U, e.V, e.Weight)
				}
				rec := &store.Record{Key: fmt.Sprintf("session|%d|%d|%s", sc.c, i, digest),
					NumVertices: mat.NumVertices(), InputEdges: mat.NumEdges(), SpannerDigest: sp.Digest(), Kept: kept}
				l.timed("store.put_us", func() { _ = scratch.Put(rec) })
			})
			l.account(&o.op, nil, nil, []part{{name: "core.apply_batch", d: msDur(o.reply.DurationMS)}, publish})
		case classRead:
			if !take || o.failed() {
				continue
			}
			var mat *graph.Graph
			var kept []int
			layers := []part{l.timed("graph.mutable_materialize_us", func() { mat, kept, _ = eng.Current() })}
			var sp *graph.Graph
			var text string
			layers = append(layers, l.timed("graph.encode_us", func() {
				sp = graph.New(mat.NumVertices())
				for _, id := range kept {
					e := mat.Edge(id)
					sp.MustAddEdge(e.U, e.V, e.Weight)
				}
				text = encodeGraph(sp)
			}))
			var digest string
			layers = append(layers, l.timed("graph.digest_us", func() { digest = mat.Digest() }))
			layers = append(layers, l.timed("service.response_encode_us", func() {
				edges := make([]service.SessionEdge, 0, len(kept))
				for _, id := range kept {
					e := mat.Edge(id)
					edges = append(edges, service.SessionEdge{U: e.U, V: e.V, Weight: e.Weight})
				}
				encodeResponse(struct {
					ID      string                `json:"id"`
					Digest  string                `json:"digest"`
					Spanner string                `json:"spanner"`
					Kept    []service.SessionEdge `json:"kept"`
				}{sc.id, digest, text, edges})
			}))
			l.account(&o.op, nil, nil, layers)
		case classCross:
			if !take || o.failed() || o.body == nil {
				continue
			}
			layers := []part{l.timed("service.spec_decode_us", func() { decodeSpec(o.body) })}
			var spec service.JobSpec
			_ = json.Unmarshal(o.body, &spec) // built by this benchmark
			var g *graph.Graph
			layers = append(layers, l.timed("graph.decode_us", func() { g, _ = graph.Decode(strings.NewReader(spec.Graph)) }))
			layers = append(layers, l.timed("graph.digest_us", func() { g.Digest() }))
			l.account(&o.op, nil, nil, layers)
		}
	}
	return nil
}
