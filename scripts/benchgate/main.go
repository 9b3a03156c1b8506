// Command benchgate fails CI when a benchmark run regresses against the
// repository's recorded perf trajectory: it compares ns/op of the Large*
// cases (the stable, long-running fixtures — the small Build* cases are too
// noisy to gate on) between a baseline JSON and a freshly generated one, and
// exits non-zero when any gated case slowed down by more than the threshold.
// A gated case whose spanner_digest is non-empty in both reports must also
// carry the same digest: a changed kept set fails however fast the run was.
//
// Usage:
//
//	benchgate -baseline BENCH_PR10.json -current bench.json [-threshold 0.25] [-prefix Large,Session]
//
// Both files may be either a raw `ftbench -benchjson` report (top-level
// "benchmarks" array) or a recorded BENCH_PR<n>.json trajectory document
// (whose "after" object holds the report) — the gate accepts both, so the
// committed trajectory doubles as the baseline without reshaping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchEntry is the slice of a component benchmark the gate reads.
type benchEntry struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	SpannerDigest string  `json:"spanner_digest"`
}

// report mirrors the parts of ftbench's -benchjson document the gate needs.
type report struct {
	CPUs       int          `json:"cpus"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// trajectory is the committed BENCH_PR<n>.json shape: the current run is
// recorded under "after" (and the previous one under "before").
type trajectory struct {
	After *report `json:"after"`
}

// loadReport reads path as either a raw report or a trajectory document.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err == nil && len(r.Benchmarks) > 0 {
		return &r, nil
	}
	var t trajectory
	if err := json.Unmarshal(data, &t); err == nil && t.After != nil && len(t.After.Benchmarks) > 0 {
		return t.After, nil
	}
	return nil, fmt.Errorf("%s: neither a benchjson report nor a trajectory with an \"after\" section", path)
}

// gatedByName indexes a report's gated cases by name. prefix is a
// comma-separated list; a case is gated when any element matches.
func gatedByName(r *report, prefix string) map[string]benchEntry {
	prefixes := strings.Split(prefix, ",")
	m := make(map[string]benchEntry)
	for _, b := range r.Benchmarks {
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(b.Name, p) && b.NsPerOp > 0 {
				m[b.Name] = b
				break
			}
		}
	}
	return m
}

// compare returns one failure line per gated case that regressed beyond
// threshold (0.25 = 25% slower), changed its spanner digest or went missing
// from the current run, and one info line per compared case.
func compare(base, cur *report, prefix string, threshold float64) (failures, lines []string) {
	bm := gatedByName(base, prefix)
	cm := gatedByName(cur, prefix)
	names := make([]string, 0, len(bm))
	for name := range bm {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		be := bm[name]
		ce, ok := cm[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from current run", name))
			continue
		}
		if be.SpannerDigest != "" && ce.SpannerDigest != "" && be.SpannerDigest != ce.SpannerDigest {
			failures = append(failures, fmt.Sprintf("%s: spanner digest %s -> %s, the kept set changed",
				name, be.SpannerDigest, ce.SpannerDigest))
		}
		b, c := be.NsPerOp, ce.NsPerOp
		delta := (c - b) / b
		lines = append(lines, fmt.Sprintf("%-24s %14.0f -> %14.0f ns/op  (%+.1f%%)", name, b, c, 100*delta))
		if delta > threshold {
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op, +%.1f%% exceeds the %.0f%% budget",
				name, b, c, 100*delta, 100*threshold))
		}
	}
	if len(names) == 0 {
		failures = append(failures, fmt.Sprintf("baseline has no %q-prefixed cases to gate on", prefix))
	}
	return failures, lines
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline JSON (BENCH_PR<n>.json or raw benchjson)")
	current := flag.String("current", "", "freshly generated benchjson report")
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated ns/op regression (0.25 = 25%)")
	prefix := flag.String("prefix", "Large", "gate only benchmarks whose name starts with one of these comma-separated prefixes")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are both required")
		os.Exit(2)
	}
	base, err := loadReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := loadReport(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if base.CPUs != 0 && cur.CPUs != 0 && base.CPUs != cur.CPUs {
		// Different machine shapes make ns/op incomparable for parallel
		// cases; say so but still gate (the sequential Large case remains
		// meaningful).
		fmt.Printf("benchgate: warning: baseline ran on %d CPUs, current on %d\n", base.CPUs, cur.CPUs)
	}
	failures, lines := compare(base, cur, *prefix, *threshold)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK (%d cases within the %.0f%% budget)\n", len(lines), 100**threshold)
}
