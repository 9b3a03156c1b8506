package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
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

// fleetSize is the jobs-hot-fleet replica count.
const fleetSize = 3

// zipfS is the skew of the hot workload's pool draws.
const zipfS = 1.1

// maxReplays bounds how many traced ops per class the ledger replays.
const maxReplays = 256

// poolEntry is one pre-built hot-fleet input and its clean-room answer.
type poolEntry struct {
	body       []byte // the job spec, graph inline
	digest     string // input graph digest: the routing key
	spanDigest string // clean-room spanner digest
	kept       []int  // clean-room kept edge IDs
}

// hotOp is a jobs-hot-fleet request with what the checks need.
type hotOp struct {
	*jobOp
	entry  int      // pool index
	remote bool     // the entry replica is not the digest's owner
	sum    [32]byte // hash of the answer from its spanner field on
}

// answerSum hashes a spanner answer without its job ID, the one part that
// differs between answers for the same input: equal sums mean equal
// answers. Fleet nodes re-encode answers to prefix the ID, so the sum does
// not rely on field order or spacing.
func answerSum(answer []byte, id string) ([32]byte, bool) {
	quoted := []byte(`"` + id + `"`)
	i := bytes.Index(answer, quoted)
	if i < 0 {
		return [32]byte{}, false
	}
	h := sha256.New()
	h.Write(answer[:i])
	h.Write(answer[i+len(quoted):])
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, true
}

// buildPool generates the hot pool and its clean-room answers. This is the
// benchmark's own preparation, outside setup_s.
func buildPool(rc *runCtx) ([]poolEntry, error) {
	s := rc.sizes
	pool := make([]poolEntry, s.poolSize)
	errs := make([]error, rc.workers)
	parallel(rc.workers, func(c int) {
		for i := c; i < len(pool) && errs[c] == nil; i += rc.workers {
			g, err := gen.ConnectedGNM(s.poolN, s.poolM, newRand(subSeed(rc.seed, streamPool, i)))
			if err != nil {
				errs[c] = err
				return
			}
			body, _ := json.Marshal(service.JobSpec{Graph: encodeGraph(g), Stretch: 3, Faults: 1}) // a JobSpec always marshals
			res, err := core.Greedy(g, core.Options{Stretch: 3, Faults: 1, Mode: fault.Vertices})
			if err != nil {
				errs[c] = err
				return
			}
			pool[i] = poolEntry{body: body, digest: g.Digest(), spanDigest: res.Spanner.Digest(), kept: res.Kept}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("hot pool: %w", err)
		}
	}
	return pool, nil
}

// ingest builds every pool entry but the first `unbuilt` through the fleet,
// least popular first so the most popular end up in the in-memory LRUs.
func ingest(rc *runCtx, reps []*replica, pool []poolEntry) error {
	errs := make([]error, rc.clients)
	parallel(rc.clients, func(c int) {
		cl := newClient(nil)
		k := 0
		for i := len(pool) - 1; i >= rc.sizes.unbuilt; i-- {
			if k++; k%rc.clients != c {
				continue
			}
			base := reps[i%len(reps)].base
			data, err := do(cl, http.MethodPost, base+"/v1/jobs", pool[i].body)
			var sr submitReply
			if err == nil {
				err = json.Unmarshal(data, &sr)
			}
			if err == nil && !service.State(sr.State).Terminal() {
				sr.State, err = waitDone(cl, base, sr.ID)
			}
			if err == nil && sr.State != string(service.StateDone) {
				err = fmt.Errorf("job %s ended %s", sr.ID, sr.State)
			}
			if err != nil {
				errs[c] = fmt.Errorf("ingest: %w", err)
				return
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

// waitPersisted waits until every replica has persisted every build it
// ran. A job reads done before its durable-store write ends, and until then
// it is still in flight: a submission of the same graph would join it
// (answered as a deduplicated, uncached job) instead of hitting the cache.
func waitPersisted(reps []*replica) error {
	admin := newClient(nil)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		ms, err := scrape(admin, reps)
		if err != nil {
			return err
		}
		pending := false
		for _, m := range ms {
			pending = pending || m.Latency.Persist.Count < m.BuildsTotal
		}
		if !pending {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("ingest: builds still persisting after 30s")
		}
	}
}

// runHot drives the jobs-hot-fleet workload.
func runHot(rc *runCtx) (*runData, error) {
	pool, err := buildPool(rc)
	if err != nil {
		return nil, err
	}
	rd := &runData{}
	var reps []*replica
	defer func() { stopReplicas(reps) }()
	for i := 0; i < setupRepeats; i++ {
		stopReplicas(reps)
		reps = nil
		t := time.Now()
		r, err := startReplicas(filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)), fleetSize, rc.workers)
		if err != nil {
			return nil, err
		}
		reps = r
		if err := ingest(rc, reps, pool); err != nil {
			return nil, err
		}
		if err := waitPersisted(reps); err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, time.Since(t))
	}
	ring := reps[0].node.Ring()
	owner := make([]string, len(pool))
	for i, p := range pool {
		owner[i] = ring.Peers()[ring.Owner(p.digest)]
	}

	// Each client is pinned to one entry replica and draws from its own
	// seeded Zipf stream; the warm-up draws come first and are not kept.
	perClient := make([][]*hotOp, rc.clients)
	clients := make([]*http.Client, rc.clients)
	zipfs := make([]*rand.Zipf, rc.clients)
	for c := range clients {
		clients[c] = newClient(rc.wrap)
		zipfs[c] = rand.NewZipf(newRand(subSeed(rc.seed, streamClient+c, 0)), zipfS, 1, uint64(len(pool)-1))
	}
	hotOnce := func(c int, traced bool) *hotOp {
		rep := reps[c%len(reps)]
		i := int(zipfs[c].Uint64())
		o := &hotOp{jobOp: runJob(clients[c], rep.base, pool[i].body, traced, true), entry: i, remote: owner[i] != rep.addr}
		if !o.failed() {
			sum, ok := answerSum(o.answer, o.id)
			if !ok {
				o.fail("spanner answer does not carry job ID %s", o.id)
			}
			o.sum = sum
		}
		o.fetchTrace(clients[c], rep.base)
		return o
	}
	// Warm-up draws are checked like measured ones, then dropped.
	warm := make([]error, rc.clients)
	parallel(rc.clients, func(c int) {
		for j := 0; j < rc.sizes.warmOps/rc.clients && warm[c] == nil; j++ {
			if o := hotOnce(c, false); o.failed() {
				warm[c] = fmt.Errorf("warm-up job: %s", o.err)
			}
		}
	})
	for _, err := range warm {
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
		seen := map[answerKey]bool{}
		for window.running() {
			o := hotOnce(c, rc.trace && !time.Now().Before(tracedFrom))
			// The check needs one answer per distinct (entry, sum); the
			// bodies are large, so the rest are dropped.
			k := answerKey{o.entry, o.sum}
			if seen[k] {
				o.answer = nil
			}
			seen[k] = true
			perClient[c] = append(perClient[c], o)
		}
	})
	after, err := scrape(admin, reps)
	if err != nil {
		return nil, err
	}
	win := sum(after).minus(sum(before))
	// The window must run zero builds: every build is a failed op.
	for i := int64(0); i < win.builds; i++ {
		rd.failedChecks = append(rd.failedChecks, "a build ran in the hot window")
	}

	var ops []*hotOp
	for _, cs := range perClient {
		ops = append(ops, cs...)
	}
	verifyHot(pool, ops)
	for _, o := range ops {
		rd.ops = append(rd.ops, o.op)
	}
	if rc.trace {
		rd.layers = newLedger()
		if err := hotLedger(rc, rd.layers, pool, ops, win, after); err != nil {
			return nil, err
		}
		overhead(rd.layers, rd.ops, classJob)
	}
	return rd, nil
}

// answerKey groups identical answers for one pool entry.
type answerKey struct {
	entry int
	sum   [32]byte
}

// verifyHot checks one kept answer per distinct (pool entry, answer sum)
// against the clean-room greedy; a bad answer fails every op that got it.
func verifyHot(pool []poolEntry, ops []*hotOp) {
	groups := map[answerKey][]*hotOp{}
	for _, o := range ops {
		if !o.failed() {
			k := answerKey{o.entry, o.sum}
			groups[k] = append(groups[k], o)
		}
	}
	for k, g := range groups {
		var err error
		for _, o := range g {
			if o.answer != nil {
				err = checkAnswer(o.answer, pool[k.entry].spanDigest, pool[k.entry].kept)
				break
			}
		}
		if err != nil {
			for _, o := range g {
				o.fail("%v", err)
			}
		}
	}
}

// hotLedger replays the server's layer calls for up to maxReplays traced
// ops and sets the fleet counters.
func hotLedger(rc *runCtx, l *ledger, pool []poolEntry, ops []*hotOp, win counters, after []serverMetrics) error {
	scratch, err := store.Open(filepath.Join(rc.dir, "scratch-store"), 0)
	if err != nil {
		return err
	}
	defer scratch.Close()
	var traced []*hotOp
	var local, remote []float64
	for _, o := range ops {
		if o.failed() {
			continue
		}
		if o.traced {
			traced = append(traced, o)
		} else if o.remote {
			remote = append(remote, durMS(o.lat))
		} else {
			local = append(local, durMS(o.lat))
		}
	}
	if len(local) > 0 && len(remote) > 0 {
		l.put("cluster.forward_hop_ms", median(remote)-median(local), len(remote))
	}
	step := 1
	if len(traced) > maxReplays {
		step = len(traced) / maxReplays
	}
	for j := 0; j < len(traced); j += step {
		o := traced[j]
		p := pool[o.entry]
		var layers []part
		layers = append(layers, l.timed("cluster.spec_digest_us", func() { _, _ = service.SpecDigest(p.body) }))
		layers = append(layers, l.timed("service.spec_decode_us", func() { decodeSpec(p.body) }))
		var spec service.JobSpec
		_ = json.Unmarshal(p.body, &spec) // built by this benchmark
		var g *graph.Graph
		layers = append(layers, l.timed("graph.decode_us", func() { g, _ = graph.Decode(strings.NewReader(spec.Graph)) }))
		layers = append(layers, l.timed("graph.digest_us", func() { g.Digest() }))
		sp := graph.New(g.NumVertices())
		for _, id := range p.kept {
			e := g.Edge(id)
			sp.MustAddEdge(e.U, e.V, e.Weight)
		}
		if o.store {
			key := "hot|" + p.digest
			if err := scratch.Put(&store.Record{Key: key, NumVertices: g.NumVertices(), InputEdges: g.NumEdges(),
				SpannerDigest: p.spanDigest, Kept: p.kept}); err != nil {
				return err
			}
			layers = append(layers, l.timed("store.get_us", func() { _, _ = scratch.Get(key) }))
			layers = append(layers, l.timed("service.store_reconstruct_us", func() {
				r := graph.New(g.NumVertices())
				for _, id := range p.kept {
					e := g.Edge(id)
					r.MustAddEdge(e.U, e.V, e.Weight)
				}
				r.Digest()
			}))
		}
		var text string
		layers = append(layers, l.timed("graph.encode_us", func() { text = encodeGraph(sp) }))
		layers = append(layers, l.timed("service.response_encode_us", func() {
			encodeResponse(jobAnswer{ID: o.id, Spanner: text, Kept: p.kept})
		}))
		l.account(&o.op, o.trace, o.httpParts(), layers)
	}
	l.ratio("service.cache_hit_ratio", float64(win.cacheHits), float64(win.submitted))
	l.ratio("store.hit_share", float64(win.storeHits), float64(win.cacheHits+win.storeHits))
	l.ratio("store.writes_per_op", float64(win.storeWrites), float64(len(ops)))
	l.ratio("cluster.routed_remote_share", float64(win.routedRemote), float64(win.routedLocal+win.routedRemote))
	l.put("cluster.hedged_total", float64(win.hedged), len(ops))
	l.put("cluster.retries_total", float64(win.retries), len(ops))
	l.put("cluster.peer_errors_total", float64(win.peerErrors), len(ops))
	reconcile(l, after)
	return nil
}
