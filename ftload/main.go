// Command ftload is the repository's end-to-end benchmark. It starts
// ftserve in process (one node, or a 3-replica fleet), drives it over real
// loopback HTTP from closed-loop clients, checks every answer against a
// clean-room greedy, and prints one JSON result line:
//
//	bash ftload/run.sh --workload jobs-cold --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1 it
// holds the per-layer ledger instead: the window is split into an untraced
// and a traced half, and after the window the benchmark replays the layer
// calls the server made for the traced requests (spec decode, generators,
// graph decode/digest/encode, the greedy, the incremental engine, store
// put/get) and sets them beside the server's own job stats and /metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads names the benchmark's workloads and their main request class.
var workloads = map[string]struct {
	main string
	run  func(*runCtx) (*runData, error)
}{
	"jobs-cold":      {classJob, runCold},
	"jobs-hot-fleet": {classJob, runHot},
	"session-stream": {classDelta, runSession},
}

// loadClients is the number of closed-loop clients. One client leaves a
// CPU of the two free: with two, both CPUs saturate and the host's CPU
// steal under that load moves run-to-run p99s by more than 25%.
const loadClients = 1

// setupRepeats is how many times a run sets its system up; setup_s is the
// median, and only the last system is measured. jobs-cold's set-up (one
// node answering its first request) takes about a millisecond, so it is
// repeated coldSetupRepeats times instead.
const (
	setupRepeats     = 5
	coldSetupRepeats = 25
)

// sizes are the workloads' input sizes; tests shrink them.
type sizes struct {
	// jobs-cold: vertex and edge ranges of random graphs, the vertex range
	// and radius of geometric graphs, and warm-up jobs per setup.
	coldN, coldM, geoN [2]int
	geoRadius          float64
	warmJobs           int
	// jobs-hot-fleet: pool size and each pool graph's n and m; unbuilt
	// leaves the first pool entries unbuilt by setup (tests only: the
	// window then builds, which must fail the run).
	poolSize, poolN, poolM, unbuilt int
	// Warm-up ops after setup (hot fleet and sessions), over all clients.
	warmOps int
	// session-stream: the initial graph's n, m and weight levels, and the
	// most checkpoints per client.
	sessN, sessM, levels, checkpoints int
}

var defaultSizes = sizes{
	coldN: [2]int{95, 105}, coldM: [2]int{750, 850},
	geoN: [2]int{115, 125}, geoRadius: 0.2,
	warmJobs: 32,
	poolSize: 512, poolN: 800, poolM: 1000,
	warmOps: 200,
	sessN:   150, sessM: 2000, levels: 12, checkpoints: 6,
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // scratch directory for stores and span files
	clients  int
	workers  int
	sizes    sizes
	// wrap, when set, wraps every load client's transport (tests tamper
	// with answers there).
	wrap func(http.RoundTripper) http.RoundTripper
}

// runCtx is the state a workload runs with.
type runCtx struct {
	config
	dir string // this run's private directory under out
}

// runData is what a workload hands back for reporting.
type runData struct {
	setups  []time.Duration
	window  *stealMeter
	elapsed time.Duration // the measured part of the window
	ops     []op
	// failedChecks are failed checks that are not requests: builds in the
	// hot window, and sessions failing their final clean-room check. Each
	// counts as one failed op.
	failedChecks []string
	layers       *ledger // --trace 1 only
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{clients: loadClients, workers: runtime.NumCPU(), sizes: defaultSizes}
	fs.StringVar(&cfg.workload, "workload", "", "workload: jobs-cold, jobs-hot-fleet or session-stream")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer ledger")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "ftload-run"), "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "ftload: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "ftload: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	res, table, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ftload: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, table)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ftload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the human-readable table printed before the result.
type row struct {
	name      string
	value     float64
	unit      string
	n         int  // samples behind the value
	beyond    int  // samples ranked beyond a percentile (-1: not a percentile)
	tableOnly bool // printed in the table, not in the result
}

// execute runs one workload and renders its result and table.
func execute(cfg config) (*result, string, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	w := workloads[cfg.workload]
	rd, err := w.run(&runCtx{config: cfg, dir: dir})
	if err != nil {
		return nil, "", err
	}
	res := &result{Metrics: map[string]metric{}}
	var failures []string
	for _, o := range rd.ops {
		res.Attempted++
		if o.failed() {
			res.Failed++
			failures = append(failures, o.class+": "+o.err)
		}
	}
	res.Failed += len(rd.failedChecks)
	failures = append(failures, rd.failedChecks...)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		return nil, "", errors.New("no requests completed in the window")
	}

	measured, steal, worst := rd.window.gate(rd.ops)
	rd.elapsed = measured
	var rows []row
	if cfg.trace {
		rows = rd.layers.rows()
		if err := rd.layers.writeSpans(filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, "", err
		}
	} else {
		rows = endToEnd(rd, w.main, float64(cfg.seconds))
	}
	for _, r := range rows {
		if !r.tableOnly {
			res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "ftload %s seed=%d seconds=%d trace=%v clients=%d workers=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.clients, cfg.workers, runtime.GOMAXPROCS(0), runtime.Version())
	if !cfg.trace {
		fmt.Fprintf(&b, "  window: host CPU steal %.1f%%; measured requests from the cleanest %.1fs of %v ticks (steal at most %.1f%%)\n",
			100*steal, measured.Seconds(), tickLen, 100*worst)
	}
	heading := false
	for _, r := range rows {
		if r.tableOnly && !heading {
			b.WriteString("  not in the result:\n")
			heading = true
		}
		beyond := ""
		if r.beyond >= 0 {
			beyond = fmt.Sprintf(" beyond=%d", r.beyond)
			if r.beyond < 10 {
				beyond += " (fewer than 10 samples beyond this percentile)"
			}
		}
		fmt.Fprintf(&b, "  %-44s %14.4f %-6s n=%d%s\n", r.name, r.value, r.unit, r.n, beyond)
	}
	sort.Strings(failures)
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(&b, "  ... %d more failures\n", len(failures)-10)
			break
		}
		fmt.Fprintf(&b, "  FAILED %s\n", f)
	}
	return res, b.String(), nil
}

// endToEnd computes the end-to-end metrics every workload reports. "main"
// is the workload's main request class (a job, or a delta batch); "submit"
// is the POST /v1/jobs round trip (a job's submission, or a cross-job);
// "read" is fetching a finished spanner body (a job's spanner GET, or a
// session read). The table also names them by request class, and adds the
// tail percentiles, submit_p50_ms, the peak resident set and
// ops_failed_share, which the result leaves out (see ftload/BASELINE.md).
func endToEnd(rd *runData, main string, seconds float64) []row {
	var mainS, submitS, readS samples
	attempted, failed, okMain := 0, len(rd.failedChecks), 0
	for _, o := range rd.ops {
		if o.traced {
			continue
		}
		bad := o.failed()
		attempted++
		if bad {
			failed++
		}
		if o.noisy {
			continue
		}
		switch o.class {
		case classJob:
			submitS.add(o.submit, bad)
			readS.add(o.read, bad)
		case classCross:
			submitS.add(o.lat, bad)
		case classRead:
			readS.add(o.lat, bad)
		}
		if o.class == main {
			mainS.add(o.lat, bad)
			if !bad {
				okMain++
			}
		}
	}
	capMS := seconds * 1000
	pq := func(name string, s *samples, q float64) row {
		v, beyond := s.quantile(q, capMS)
		return row{name: name, value: v, unit: "ms", n: s.n(), beyond: beyond}
	}
	setups := make([]float64, len(rd.setups))
	for i, d := range rd.setups {
		setups[i] = d.Seconds()
	}
	rssMed, rssPeak := rd.window.rss()
	rows := []row{
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups), beyond: -1},
		pq("main_p50_ms", &mainS, 0.50),
		{name: "main_ops_per_s", value: float64(okMain) / rd.elapsed.Seconds(), unit: "1/s", n: okMain, beyond: -1},
		pq("read_p50_ms", &readS, 0.50),
		{name: "rss_mb", value: rssMed, unit: "MB", n: rd.window.kept(), beyond: -1},
		{name: "ops_ok_share", value: 1 - float64(failed)/float64(attempted), unit: "share", n: attempted, beyond: -1},
	}
	extra := []row{
		pq("main_p90_ms", &mainS, 0.90),
		pq("main_p99_ms", &mainS, 0.99),
		pq("submit_p50_ms", &submitS, 0.50),
		pq("submit_p99_ms", &submitS, 0.99),
		pq("read_p99_ms", &readS, 0.99),
		{name: "rss_peak_mb", value: rssPeak, unit: "MB", n: rd.window.kept(), beyond: -1},
		{name: "ops_failed_share", value: float64(failed) / float64(attempted), unit: "share", n: attempted, beyond: -1},
	}
	// The same figures under their request-class names.
	alias := map[string]string{
		"main_p50_ms": "job_latency_p50_ms", "main_p90_ms": "job_latency_p90_ms", "main_p99_ms": "job_latency_p99_ms",
		"main_ops_per_s": "jobs_per_s",
	}
	if main == classDelta {
		alias = map[string]string{
			"main_p50_ms": "delta_latency_p50_ms", "main_p90_ms": "delta_latency_p90_ms", "main_p99_ms": "delta_latency_p99_ms",
			"main_ops_per_s": "deltas_per_s",
			"submit_p50_ms":  "cross_job_p50_ms", "submit_p99_ms": "cross_job_p99_ms",
			"read_p50_ms": "session_read_p50_ms", "read_p99_ms": "session_read_p99_ms",
		}
	}
	for _, r := range append(rows, extra...) {
		if a, ok := alias[r.name]; ok {
			r.name = a
			extra = append(extra, r)
		}
	}
	for i := range extra {
		extra[i].tableOnly = true
	}
	return append(rows, extra...)
}

// openWindow starts the measured window. In an untraced run it is steal
// gated (see steal.go); a traced run measures exactly --seconds, its
// second half traced, and tracedFrom is when that half starts (the zero
// time otherwise).
func (rc *runCtx) openWindow() (w *stealMeter, tracedFrom time.Time) {
	// Set-up garbage (earlier set-ups, pools) is released first, so the
	// window's resident set is the serving system's own.
	runtime.GC()
	debug.FreeOSMemory()
	need := time.Duration(rc.seconds) * time.Second
	if rc.trace {
		tracedFrom = time.Now().Add(need / 2)
	}
	return startStealMeter(need, !rc.trace), tracedFrom
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			fn(i)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}
