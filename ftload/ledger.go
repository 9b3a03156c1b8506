package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layerMetric is one per-layer metric of the traced run. Sample metrics are
// reduced to a quantile of their samples; the others are set once.
type layerMetric struct {
	name string
	unit string
	q    float64 // > 0: quantile of samples; 0: set directly
}

// layerMetrics is the per-layer ledger, in report order. Every traced run
// reports all of them; a layer the workload never reaches reads 0 with n=0.
// BENCHMARK.json's per_layer list and ftload/BASELINE.md's layer map name
// the same metrics.
var layerMetrics = []layerMetric{
	{"service.spec_decode_us", "us", 0.5},
	{"service.response_encode_us", "us", 0.5},
	{"service.cache_hit_ratio", "share", 0},
	{"service.queue_wait_ms", "ms", 0.5},
	{"service.queue_wait_p99_ms", "ms", 0.99},
	{"service.session_publish_us", "us", 0.5},
	{"service.session_publish_share", "share", 0},
	{"service.session_delta_unreported_ms", "ms", 0},
	{"cluster.spec_digest_us", "us", 0.5},
	{"cluster.forward_hop_ms", "ms", 0},
	{"cluster.routed_remote_share", "share", 0},
	{"cluster.hedged_total", "count", 0},
	{"cluster.retries_total", "count", 0},
	{"cluster.peer_errors_total", "count", 0},
	{"gen.materialize_us", "us", 0.5},
	{"graph.decode_us", "us", 0.5},
	{"graph.digest_us", "us", 0.5},
	{"graph.encode_us", "us", 0.5},
	{"graph.mutable_materialize_us", "us", 0.5},
	{"core.build_ms", "ms", 0.5},
	{"core.greedy_ms", "ms", 0.5},
	{"core.edges_scanned", "count", 0},
	{"core.spec_hit_ratio", "share", 0},
	{"core.spec_waste", "count", 0},
	{"core.apply_batch_us", "us", 0.5},
	{"core.apply_batch_replay_us", "us", 0.5},
	{"core.suffix_len", "count", 0},
	{"core.shortcut_ratio", "share", 0},
	{"core.full_rebuild_share", "share", 0},
	{"fault.oracle_calls", "count", 0},
	{"fault.oracle_query_us", "us", 0.5},
	{"fault.witness_hit_ratio", "share", 0},
	{"fault.constructions", "count", 0.5},
	{"fault.oracle_reuse_ratio", "share", 0},
	{"sssp.dijkstras_per_oracle_call", "count", 0},
	{"store.put_us", "us", 0.5},
	{"store.persist_ms", "ms", 0},
	{"store.writes_per_op", "count", 0},
	{"store.bytes_per_write", "bytes", 0},
	{"store.get_us", "us", 0.5},
	{"store.hit_share", "share", 0},
	{"ledger.unaccounted_share.job", "share", 0},
	{"ledger.unaccounted_share.delta", "share", 0},
	{"ledger.unaccounted_share.read", "share", 0},
	{"ledger.unaccounted_share.cross", "share", 0},
	{"ledger.tracing_overhead_share", "share", 0},
	{"reconcile.build.live_p50_ms", "ms", 0},
	{"reconcile.build.ledger_p50_ms", "ms", 0},
	{"reconcile.store_put.live_p50_ms", "ms", 0},
	{"reconcile.store_put.ledger_p50_ms", "ms", 0},
	{"reconcile.store_get.live_p50_ms", "ms", 0},
	{"reconcile.store_get.ledger_p50_ms", "ms", 0},
	{"reconcile.oracle_query.live_p50_us", "us", 0},
	{"reconcile.oracle_query.ledger_p50_us", "us", 0},
	{"reconcile.session_delta.live_p50_ms", "ms", 0},
	{"reconcile.session_delta.ledger_p50_ms", "ms", 0},
}

// part is one layer's self time inside a request: a replayed call or a
// duration the server reported.
type part struct {
	name  string
	start time.Time // zero for server-reported durations
	d     time.Duration
}

// span is one recorded interval. Spans of one request share Trace; Parent
// 0 marks the request's root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns,omitempty"` // since the run began; 0 for server-reported durations
	Dur    int64  `json:"dur_ns"`
	// Server is the job's own trace (GET /v1/jobs/{id}/trace), on a
	// job's root span.
	Server json.RawMessage `json:"server_trace,omitempty"`
}

// classSums accumulates one request class's layer self times against its
// end-to-end latency.
type classSums struct {
	self, e2e time.Duration
	n         int
}

// ledger collects the traced run's spans, layer samples and counters in
// memory; rows reduces them and writeSpans writes the spans out at the end.
type ledger struct {
	t0 time.Time

	mu      sync.Mutex
	samples map[string][]float64
	set     map[string]row
	classes map[string]*classSums
	spans   []span
	nextID  int64
}

func newLedger() *ledger {
	return &ledger{
		t0:      time.Now(),
		samples: map[string][]float64{},
		set:     map[string]row{},
		classes: map[string]*classSums{},
	}
}

// sample records one value of a sample metric.
func (l *ledger) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// timed runs fn, records its duration in microseconds under name, and
// returns it as a part.
func (l *ledger) timed(name string, fn func()) part {
	t := time.Now()
	fn()
	d := time.Since(t)
	l.sample(name, durUS(d))
	return part{name: name, start: t, d: d}
}

// put sets a directly computed metric with the count n behind it.
func (l *ledger) put(name string, v float64, n int) {
	l.mu.Lock()
	l.set[name] = row{name: name, value: v, n: n, beyond: -1}
	l.mu.Unlock()
}

// ratio sets num/den (0 when den is 0) with den as its count.
func (l *ledger) ratio(name string, num, den float64) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	l.put(name, v, int(den))
}

// quantile returns a sample metric's q-quantile (0 for no samples).
func (l *ledger) quantile(name string, q float64) float64 {
	l.mu.Lock()
	xs := append([]float64(nil), l.samples[name]...)
	l.mu.Unlock()
	return pct(xs, q)
}

// account books one traced request: its root span (with the server's own
// trace, if any), the HTTP spans under it, and its layer parts, whose self
// times count toward the class's accounted share.
func (l *ledger) account(o *op, server json.RawMessage, httpParts, layers []part) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.classes[o.class]
	if c == nil {
		c = &classSums{}
		l.classes[o.class] = c
	}
	c.e2e += o.lat
	c.n++
	l.nextID++
	root := l.nextID
	l.spans = append(l.spans, span{Trace: root, ID: root, Name: "op." + o.class, Start: l.rel(o.start), Dur: int64(o.lat), Server: server})
	add := func(p part) {
		l.nextID++
		l.spans = append(l.spans, span{Trace: root, ID: l.nextID, Parent: root, Name: p.name, Start: l.rel(p.start), Dur: int64(p.d)})
	}
	for _, p := range httpParts {
		add(p)
	}
	for _, p := range layers {
		add(p)
		c.self += p.d
	}
}

func (l *ledger) rel(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return int64(t.Sub(l.t0))
}

// rows reduces the ledger to the per-layer metrics, in report order.
func (l *ledger) rows() []row {
	for _, class := range []string{classJob, classDelta, classRead, classCross} {
		l.mu.Lock()
		c := l.classes[class]
		l.mu.Unlock()
		if c != nil && c.e2e > 0 {
			l.put("ledger.unaccounted_share."+class, 1-float64(c.self)/float64(c.e2e), c.n)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]row, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		r := row{name: m.name, unit: m.unit, beyond: -1}
		if m.q > 0 {
			xs := append([]float64(nil), l.samples[m.name]...)
			r.value, r.n = pct(xs, m.q), len(xs)
		} else if s, ok := l.set[m.name]; ok {
			r.value, r.n = s.value, s.n
		}
		out = append(out, r)
	}
	return out
}

// writeSpans writes every span as one JSON line to path.
func (l *ledger) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
