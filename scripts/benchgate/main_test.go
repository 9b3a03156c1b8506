package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rpt(entries ...benchEntry) *report { return &report{CPUs: 1, Benchmarks: entries} }

func TestCompareGate(t *testing.T) {
	base := rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1000},
		benchEntry{Name: "LargeVFTf2Par4", NsPerOp: 900},
		benchEntry{Name: "BuildVFTf1", NsPerOp: 100}, // not gated: wrong prefix
	)

	// Within budget: 20% slower passes a 25% gate.
	fails, lines := compare(base, rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1200},
		benchEntry{Name: "LargeVFTf2Par4", NsPerOp: 900},
	), "Large", 0.25)
	if len(fails) != 0 {
		t.Fatalf("within-budget run failed: %v", fails)
	}
	if len(lines) != 2 {
		t.Fatalf("compared %d cases, want 2: %v", len(lines), lines)
	}

	// Over budget: 30% slower fails.
	fails, _ = compare(base, rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1300},
		benchEntry{Name: "LargeVFTf2Par4", NsPerOp: 900},
	), "Large", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "LargeVFTf2Seq") {
		t.Fatalf("over-budget regression not caught: %v", fails)
	}

	// A gated case vanishing from the current run fails.
	fails, _ = compare(base, rpt(benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1000}), "Large", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("missing case not caught: %v", fails)
	}

	// Getting faster never fails, and the ungated prefix is ignored even
	// when it regresses wildly.
	fails, _ = compare(base, rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 500},
		benchEntry{Name: "LargeVFTf2Par4", NsPerOp: 450},
		benchEntry{Name: "BuildVFTf1", NsPerOp: 10000},
	), "Large", 0.25)
	if len(fails) != 0 {
		t.Fatalf("improvement failed the gate: %v", fails)
	}

	// An empty gate set is a configuration error, not a silent pass.
	fails, _ = compare(rpt(), rpt(), "Large", 0.25)
	if len(fails) != 1 {
		t.Fatalf("empty baseline passed: %v", fails)
	}
}

func TestCompareMultiPrefix(t *testing.T) {
	base := rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1000},
		benchEntry{Name: "SessionSmallDelta", NsPerOp: 100},
		benchEntry{Name: "BuildVFTf1", NsPerOp: 100}, // not gated by either prefix
	)

	// Both prefixes gate: a Session regression fails a Large,Session gate.
	fails, lines := compare(base, rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1000},
		benchEntry{Name: "SessionSmallDelta", NsPerOp: 200},
		benchEntry{Name: "BuildVFTf1", NsPerOp: 10000},
	), "Large,Session", 0.25)
	if len(lines) != 2 {
		t.Fatalf("compared %d cases, want 2: %v", len(lines), lines)
	}
	if len(fails) != 1 || !strings.Contains(fails[0], "SessionSmallDelta") {
		t.Fatalf("session regression not caught under multi-prefix gate: %v", fails)
	}

	// A missing Session case fails too.
	fails, _ = compare(base, rpt(benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1000}), "Large,Session", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "SessionSmallDelta") {
		t.Fatalf("missing session case not caught: %v", fails)
	}
}

// TestCompareDigestGate: a gated case whose spanner digest differs between
// reports fails however fast it ran; an empty digest on either side (a case
// that builds no spanner, or an older report) gates on ns/op alone.
func TestCompareDigestGate(t *testing.T) {
	base := rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 1000, SpannerDigest: "aa"},
		benchEntry{Name: "SessionChurn", NsPerOp: 100, SpannerDigest: "bb"},
		benchEntry{Name: "DecodeHotPool", NsPerOp: 100},
		benchEntry{Name: "BuildVFTf1", NsPerOp: 100, SpannerDigest: "cc"}, // not gated
	)
	const prefix = "Large,Session,Decode"

	// Matching digests, and an empty digest on one side, pass.
	fails, lines := compare(base, rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 900, SpannerDigest: "aa"},
		benchEntry{Name: "SessionChurn", NsPerOp: 100},
		benchEntry{Name: "DecodeHotPool", NsPerOp: 100, SpannerDigest: "dd"},
		benchEntry{Name: "BuildVFTf1", NsPerOp: 100, SpannerDigest: "changed"},
	), prefix, 0.25)
	if len(fails) != 0 || len(lines) != 3 {
		t.Fatalf("matching or empty digests: fails %v, lines %v", fails, lines)
	}

	// A mismatch fails even when the case got faster.
	fails, _ = compare(base, rpt(
		benchEntry{Name: "LargeVFTf2Seq", NsPerOp: 500, SpannerDigest: "ab"},
		benchEntry{Name: "SessionChurn", NsPerOp: 100, SpannerDigest: "bb"},
		benchEntry{Name: "DecodeHotPool", NsPerOp: 100},
	), prefix, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "LargeVFTf2Seq") || !strings.Contains(fails[0], "digest") {
		t.Fatalf("digest mismatch not caught: %v", fails)
	}
}

func TestLoadReportBothShapes(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.json")
	os.WriteFile(raw, []byte(`{"cpus":1,"benchmarks":[{"name":"LargeX","ns_per_op":42}]}`), 0o644)
	traj := filepath.Join(dir, "traj.json")
	os.WriteFile(traj, []byte(`{"pr":6,"after":{"cpus":1,"benchmarks":[{"name":"LargeX","ns_per_op":41}]}}`), 0o644)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"pr":6}`), 0o644)

	r, err := loadReport(raw)
	if err != nil || len(r.Benchmarks) != 1 || r.Benchmarks[0].NsPerOp != 42 {
		t.Fatalf("raw shape: %v %+v", err, r)
	}
	r, err = loadReport(traj)
	if err != nil || len(r.Benchmarks) != 1 || r.Benchmarks[0].NsPerOp != 41 {
		t.Fatalf("trajectory shape: %v %+v", err, r)
	}
	if _, err := loadReport(bad); err == nil {
		t.Fatal("shapeless document accepted")
	}
}
