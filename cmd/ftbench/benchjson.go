package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"github.com/ftspanner/ftspanner"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/obs"
)

// componentBench is one entry of the -benchjson report: a component
// benchmark's timing/allocation profile plus the oracle instrumentation of a
// single representative run. The schema is the repository's recorded perf
// trajectory (BENCH_PR<n>.json at the repo root); CI uploads one per build.
type componentBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Oracle instrumentation from one representative run (not per-op).
	Dijkstras   int64 `json:"dijkstras,omitempty"`
	OracleCalls int64 `json:"oracle_calls,omitempty"`
	KeptEdges   int   `json:"kept_edges,omitempty"`
	// Speculation instrumentation (Parallelism > 1 cases): spec_hits +
	// spec_waste == spec_queries; rounds/requeries account how invalidated
	// answers were resolved.
	SpecBatches   int64   `json:"spec_batches,omitempty"`
	SpecQueries   int64   `json:"spec_queries,omitempty"`
	SpecHits      int64   `json:"spec_hits,omitempty"`
	SpecWaste     int64   `json:"spec_waste,omitempty"`
	SpecRounds    int64   `json:"spec_rounds,omitempty"`
	SpecRequeries int64   `json:"spec_requeries,omitempty"`
	SpecHitRate   float64 `json:"spec_hit_rate,omitempty"`
	// SpannerDigest is the built spanner's content hash: parallel and
	// sequential runs of the same workload must record the same digest (the
	// determinism guarantee, checked at generation time).
	SpannerDigest string `json:"spanner_digest,omitempty"`
	// SpeedupVsBaseline is NsPerOp(baseline case)/NsPerOp(this case) for
	// cases declaring a baseline — the recorded parallel-vs-sequential win.
	// Wall-clock speedup requires runnable CPUs; see the report's cpus field.
	Baseline          string  `json:"baseline,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// OracleQueryLatency summarizes sampled per-query oracle latency for
	// cases run with the latency hook attached — the same obs.Summary shape
	// ftserve reports in /metrics, so the recorded trajectory and the live
	// service share one schema.
	OracleQueryLatency *obs.Summary `json:"oracle_query_latency,omitempty"`
}

// benchReport is the top-level -benchjson document. CPUs records the
// runnable processors the run had (runtime.GOMAXPROCS): parallel-build
// speedups are only meaningful relative to it — on a single-CPU host the
// speculative builder can at best tie the sequential one.
type benchReport struct {
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	CPUs       int              `json:"cpus"`
	Benchmarks []componentBench `json:"benchmarks"`
}

// buildCase is one oracle/build workload measured by -benchjson. The cases
// mirror the component benchmarks in bench_test.go so `go test -bench` and
// the JSON trajectory describe the same workloads.
type buildCase struct {
	name    string
	mode    ftspanner.Mode
	n, m    int
	seed    int64
	stretch float64
	faults  int
	// levels > 0 quantizes weights to {1..levels} (same-weight batches for
	// the speculative builder); 0 keeps the generator's unit weights.
	levels int
	// parallelism is core.Options.Parallelism.
	parallelism int
	// baseline names an earlier case to compute a speedup against.
	baseline string
	// observed attaches the sampled oracle-latency hook during the timed
	// runs, measuring the observability overhead against the baseline case
	// (speedup_vs_baseline ≈ 1 means the hook is free).
	observed bool
}

var buildCases = []buildCase{
	{name: "BuildVFTf1", mode: ftspanner.VertexFaults, n: 80, m: 800, seed: 1, stretch: 3, faults: 1},
	{name: "BuildVFTf3", mode: ftspanner.VertexFaults, n: 80, m: 800, seed: 1, stretch: 3, faults: 3},
	{name: "BuildEFTf1", mode: ftspanner.EdgeFaults, n: 80, m: 800, seed: 1, stretch: 3, faults: 1},
	{name: "BuildEFTf3", mode: ftspanner.EdgeFaults, n: 80, m: 800, seed: 1, stretch: 3, faults: 3},
	// BuildVFTf1 again with the latency-sampling hook attached: the
	// recorded speedup_vs_baseline is the histogram overhead (target <2%).
	{name: "BuildVFTf1Obs", mode: ftspanner.VertexFaults, n: 80, m: 800, seed: 1, stretch: 3, faults: 1,
		baseline: "BuildVFTf1", observed: true},
	// The parallel-build large fixture: quantized weights give ~170-edge
	// same-weight batches, the regime the speculative scan was built for.
	{name: "LargeVFTf2Seq", mode: ftspanner.VertexFaults, n: 150, m: 2000, seed: 7, stretch: 3, faults: 2, levels: 12},
}

// parallelCase derives the large-fixture speculative case from the
// -parallelism flag, against the sequential baseline. The default flag
// reproduces the recorded trajectory name (LargeVFTf2Par4).
func parallelCase(parallelism int) buildCase {
	var seq buildCase
	for _, c := range buildCases {
		if c.name == "LargeVFTf2Seq" {
			seq = c
		}
	}
	par := seq
	par.name = fmt.Sprintf("LargeVFTf2Par%d", parallelism)
	par.parallelism = parallelism
	par.baseline = seq.name
	return par
}

// caseGraph materializes a case's input graph.
func caseGraph(c buildCase) (*ftspanner.Graph, error) {
	g, err := ftspanner.RandomGraph(c.n, c.m, c.seed)
	if err != nil {
		return nil, err
	}
	if c.levels > 0 {
		return ftspanner.QuantizeWeights(g, c.levels, c.seed)
	}
	return g, nil
}

// runBenchJSON measures the component benchmarks and writes the JSON report
// to path ("-" for stdout). parallelism parameterizes the large fixture's
// speculative case.
func runBenchJSON(path string, out io.Writer, parallelism int) error {
	cases := append(append([]buildCase{}, buildCases...), parallelCase(parallelism))
	report := benchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.GOMAXPROCS(0),
		Benchmarks: make([]componentBench, 0, len(cases)+1),
	}

	digests := make(map[string]string) // case name -> spanner digest
	for _, c := range cases {
		g, err := caseGraph(c)
		if err != nil {
			return err
		}
		opts := ftspanner.Options{Stretch: c.stretch, Faults: c.faults, Mode: c.mode,
			Parallelism: c.parallelism}
		var queryHist *obs.Histogram
		if c.observed {
			queryHist = obs.NewHistogram()
			opts.Oracle.ObserveQuery = queryHist.Record
		}

		// One instrumented run for the counters the testing harness cannot
		// see (Dijkstras, oracle calls, output size)...
		res, err := ftspanner.Build(g, opts)
		if err != nil {
			return err
		}
		// ...then the timed runs.
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ftspanner.Build(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		entry := componentBench{
			Name:          c.name,
			NsPerOp:       float64(br.NsPerOp()),
			AllocsPerOp:   br.AllocsPerOp(),
			BytesPerOp:    br.AllocedBytesPerOp(),
			Dijkstras:     res.Stats.Dijkstras,
			OracleCalls:   res.Stats.OracleCalls,
			KeptEdges:     len(res.Kept),
			SpecBatches:   res.Stats.SpecBatches,
			SpecQueries:   res.Stats.SpecQueries,
			SpecHits:      res.Stats.SpecHits,
			SpecWaste:     res.Stats.SpecWaste,
			SpecRounds:    res.Stats.SpecRounds,
			SpecRequeries: res.Stats.SpecRequeries,
			SpecHitRate:   res.Stats.SpecHitRate(),
			SpannerDigest: res.Spanner.Digest(),
		}
		if queryHist != nil {
			s := queryHist.Summarize()
			entry.OracleQueryLatency = &s
		}
		digests[c.name] = entry.SpannerDigest
		if c.baseline != "" {
			entry.Baseline = c.baseline
			for _, prev := range report.Benchmarks {
				if prev.Name == c.baseline && entry.NsPerOp > 0 {
					entry.SpeedupVsBaseline = prev.NsPerOp / entry.NsPerOp
				}
			}
			if want, ok := digests[c.baseline]; ok && want != entry.SpannerDigest {
				return fmt.Errorf("benchjson: %s spanner digest %s differs from baseline %s's %s — determinism violated",
					c.name, entry.SpannerDigest, c.baseline, want)
			}
		}
		report.Benchmarks = append(report.Benchmarks, entry)
		fmt.Fprintf(out, "%-14s %12.0f ns/op %8d allocs/op %10d B/op  dijkstras=%d",
			c.name, float64(br.NsPerOp()), br.AllocsPerOp(), br.AllocedBytesPerOp(), res.Stats.Dijkstras)
		if c.baseline != "" {
			fmt.Fprintf(out, "  speedup=%.2fx vs %s (cpus=%d)", entry.SpeedupVsBaseline, c.baseline, report.CPUs)
		}
		fmt.Fprintln(out)
	}

	coldEntry, err := coldMixBench(out)
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, coldEntry)

	sessionEntries, err := sessionBenchEntries(out)
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, sessionEntries...)

	readEntry, err := sessionReadBench(out)
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, readEntry)

	decodeEntries, err := decodeBenchEntries(out)
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, decodeEntries...)

	if oracleBench, err := oracleQueryBench(out); err != nil {
		return err
	} else {
		report.Benchmarks = append(report.Benchmarks, oracleBench)
	}

	if path == "-" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// oracleQueryBench measures the oracle query hot path in isolation (the
// mirror of BenchmarkOracleQuery): repeated FindFaultSet calls against a
// fixed prebuilt spanner.
func oracleQueryBench(out io.Writer) (componentBench, error) {
	g, err := ftspanner.RandomGraph(120, 1200, 2)
	if err != nil {
		return componentBench{}, err
	}
	res, err := ftspanner.BuildVFT(g, 3, 2)
	if err != nil {
		return componentBench{}, err
	}
	br := testing.Benchmark(func(b *testing.B) {
		oracle, err := fault.NewOracle(res.Spanner, fault.Vertices, fault.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := g.Edge(i % g.NumEdges())
			if _, _, err := oracle.FindFaultSet(e.U, e.V, 3*e.Weight, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A separate instrumented pass feeds the latency histogram (sampled, the
	// same hook ftserve uses), so the summary below and the service's
	// /metrics oracle_query block share schema and methodology.
	hist := obs.NewHistogram()
	observed, err := fault.NewOracle(res.Spanner, fault.Vertices, fault.Options{ObserveQuery: hist.Record})
	if err != nil {
		return componentBench{}, err
	}
	const latencyQueries = 4096
	for i := 0; i < latencyQueries; i++ {
		e := g.Edge(i % g.NumEdges())
		if _, _, err := observed.FindFaultSet(e.U, e.V, 3*e.Weight, 2); err != nil {
			return componentBench{}, err
		}
	}
	sum := hist.Summarize()
	fmt.Fprintf(out, "%-12s %12.0f ns/op %8d allocs/op %10d B/op  p50=%.3fms p99=%.3fms\n",
		"OracleQuery", float64(br.NsPerOp()), br.AllocsPerOp(), br.AllocedBytesPerOp(), sum.P50MS, sum.P99MS)
	return componentBench{
		Name:               "OracleQuery",
		NsPerOp:            float64(br.NsPerOp()),
		AllocsPerOp:        br.AllocsPerOp(),
		BytesPerOp:         br.AllocedBytesPerOp(),
		OracleQueryLatency: &sum,
	}, nil
}
