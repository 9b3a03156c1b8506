package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinySizes shrink every workload so a run takes about a second.
var tinySizes = sizes{
	coldN: [2]int{20, 30}, coldM: [2]int{40, 60},
	geoN: [2]int{20, 30}, geoRadius: 0.4,
	warmJobs: 2,
	poolSize: 8, poolN: 40, poolM: 50,
	warmOps: 4,
	sessN:   30, sessM: 60, levels: 4, checkpoints: 2,
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, out: t.TempDir(),
		clients: 2, workers: 2, sizes: tinySizes}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricEmitted runs every workload untraced and traced at tiny
// sizes: the result must hold exactly the metrics BENCHMARK.json declares,
// with their units, and the table must give each one a sample count.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, table, err := execute(tinyConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, table)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
				if !strings.Contains(table, " "+m+" ") || !strings.Contains(table, "n=") {
					t.Errorf("%s trace=%v: table lacks %s with a sample count", name, trace, m)
				}
			}
			if !trace {
				for _, m := range []string{"setup_s", "main_p50_ms", "main_ops_per_s", "rss_mb", "ops_ok_share"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

var spannerField = regexp.MustCompile(`"spanner": ?"p `)

// tamper rewrites every spanner answer's vertex count, so the answer still
// parses but its digest is wrong.
type tamper struct {
	rt  http.RoundTripper
	hit *atomic.Int64
}

func (tp *tamper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tp.rt.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/spanner") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	// Fleet nodes re-encode answers compactly, single nodes indent them.
	if loc := spannerField.FindIndex(body); loc != nil {
		k := loc[1]
		body = append(append(append([]byte(nil), body[:k]...), '9'), body[k:]...)
		tp.hit.Add(1)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestTamperedAnswerFails puts a fake transport between the load clients
// and the server: every tampered answer must be counted as a failed op and
// kept out of the latency samples.
func TestTamperedAnswerFails(t *testing.T) {
	for _, name := range []string{"jobs-cold", "jobs-hot-fleet"} {
		cfg := tinyConfig(t, name, false)
		cfg.sizes.warmOps = 0 // warm-up answers would be tampered too
		var hit atomic.Int64
		cfg.wrap = func(rt http.RoundTripper) http.RoundTripper { return &tamper{rt: rt, hit: &hit} }
		rc := &runCtx{config: cfg, dir: t.TempDir()}
		rd, err := workloads[name].run(rc)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, o := range rd.ops {
			if o.failed() {
				failed++
			}
		}
		if hit.Load() == 0 || failed != len(rd.ops) {
			t.Errorf("%s: %d answers tampered, %d of %d ops failed; want every op failed", name, hit.Load(), failed, len(rd.ops))
		}
		rows := endToEnd(rd, classJob, float64(cfg.seconds))
		for _, r := range rows {
			if r.name == "main_p50_ms" && r.value != float64(cfg.seconds)*1000 {
				t.Errorf("%s: main_p50_ms = %v with every op failed, want the window cap", name, r.value)
			}
			if r.name == "ops_ok_share" && r.value != 0 {
				t.Errorf("%s: ops_ok_share = %v, want 0", name, r.value)
			}
		}
	}
}

// TestHotWindowBuildFails leaves the two most popular pool entries unbuilt
// by setup, so the window has to build them: the run must not pass.
func TestHotWindowBuildFails(t *testing.T) {
	cfg := tinyConfig(t, "jobs-hot-fleet", false)
	cfg.sizes.unbuilt = 2
	cfg.sizes.warmOps = 0
	res, table, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || !strings.Contains(table, "a build ran in the hot window") {
		t.Errorf("correct=%v failed=%d with builds in the hot window\n%s", res.Correct, res.Failed, table)
	}
}

// TestFailedOpsRankLast pins the percentile rule: failures are never timed
// and rank slower than every success.
func TestFailedOpsRankLast(t *testing.T) {
	var s samples
	for _, ms := range []int{3, 1, 2} {
		s.add(time.Duration(ms)*time.Millisecond, false)
	}
	s.add(time.Hour, true)
	if v, beyond := s.quantile(0.5, 1000); v != 2 || beyond != 2 {
		t.Errorf("p50 = %v (beyond %d), want 2 ms (beyond 2)", v, beyond)
	}
	if v, _ := s.quantile(0.99, 1000); v != 1000 {
		t.Errorf("p99 = %v, want the 1000 ms cap: it lands on the failure", v)
	}
}

// TestSeedDeterminesInputs checks that the workload seed alone fixes the
// generated inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	rc := &runCtx{config: tinyConfig(t, "session-stream", false)}
	a, _ := sessionGraph(rc, 1)
	b, _ := sessionGraph(rc, 1)
	rc.seed++
	c, _ := sessionGraph(rc, 1)
	if a.Digest() != b.Digest() || a.Digest() == c.Digest() {
		t.Error("session graphs do not follow the seed")
	}
	a1, a2, b1 := newColdStream(7, streamClient, tinySizes), newColdStream(7, streamClient, tinySizes), newColdStream(8, streamClient, tinySizes)
	for i := 0; i < 2*len(coldKinds); i++ {
		s1, _ := json.Marshal(a1.next())
		s2, _ := json.Marshal(a2.next())
		s3, _ := json.Marshal(b1.next())
		if !bytes.Equal(s1, s2) || bytes.Equal(s1, s3) {
			t.Fatal("cold specs do not follow the seed")
		}
	}
}
