// Benchmarks, one per reproduction experiment E1–E13 (the README's
// experiment suite; `ftbench -list` names each one's claim): each
// BenchmarkE<n> regenerates the corresponding "table" of the evaluation in
// Quick mode, so `go test -bench=.` exercises the full pipeline end to end.
// The cmd/ftbench binary runs the same experiments with the full grids and
// prints the tables.
//
// The Ablation benchmarks measure the exact oracle's design choices that
// the README's "Bidirectional search" section describes (disjoint-path
// pruning and fault-set memoization).
package ftspanner_test

import (
	"testing"

	"github.com/ftspanner/ftspanner"
	"github.com/ftspanner/ftspanner/internal/experiment"
	"github.com/ftspanner/ftspanner/internal/fault"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(experiment.Config{Seed: 42, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass {
			b.Fatalf("%s failed: %v", id, rep.Findings)
		}
	}
}

func BenchmarkE1SizeVsF(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2SizeVsN(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Baselines(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4BlockingSet(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Subsample(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6LowerBound(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7RuntimeVsF(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8Verify(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9EdgeBlocking(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10Moore(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Conservative(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12EFTGap(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Degradation(b *testing.B)  { benchExperiment(b, "E13") }

// Component benchmarks: the two builders on a fixed mid-size workload.

func benchBuild(b *testing.B, mode ftspanner.Mode, faults int) {
	b.Helper()
	g, err := ftspanner.RandomGraph(80, 800, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftspanner.Build(g, ftspanner.Options{
			Stretch: 3, Faults: faults, Mode: mode,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildVFTf1(b *testing.B) { benchBuild(b, ftspanner.VertexFaults, 1) }
func BenchmarkBuildVFTf3(b *testing.B) { benchBuild(b, ftspanner.VertexFaults, 3) }
func BenchmarkBuildEFTf1(b *testing.B) { benchBuild(b, ftspanner.EdgeFaults, 1) }
func BenchmarkBuildEFTf3(b *testing.B) { benchBuild(b, ftspanner.EdgeFaults, 3) }

// Parallel-build benchmarks on the large quantized-weight fixture (the
// -benchjson Large* cases): same workload at increasing worker counts. The
// kept-edge set is identical at every setting; wall-clock gains need
// runnable CPUs.

func benchBuildParallel(b *testing.B, parallelism int) {
	b.Helper()
	g, err := ftspanner.RandomGraph(150, 2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	if g, err = ftspanner.QuantizeWeights(g, 12, 7); err != nil {
		b.Fatal(err)
	}
	opts := ftspanner.Options{
		Stretch: 3, Faults: 2, Mode: ftspanner.VertexFaults,
		Parallelism: parallelism,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftspanner.Build(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildLargeSeq(b *testing.B) { benchBuildParallel(b, 0) }
func BenchmarkBuildLargeP2(b *testing.B)  { benchBuildParallel(b, 2) }
func BenchmarkBuildLargeP4(b *testing.B)  { benchBuildParallel(b, 4) }

// Ablation benchmarks: oracle accelerations on and off (identical outputs,
// different work — E7 records the full curves).

func benchAblation(b *testing.B, oracle ftspanner.OracleOptions) {
	b.Helper()
	g := ftspanner.CompleteGraph(36)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftspanner.Build(g, ftspanner.Options{
			Stretch: 3, Faults: 4, Mode: ftspanner.VertexFaults, Oracle: oracle,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b, ftspanner.OracleOptions{}) }
func BenchmarkAblationNoPrune(b *testing.B) {
	benchAblation(b, ftspanner.OracleOptions{DisablePruning: true})
}
func BenchmarkAblationNoMemo(b *testing.B) {
	benchAblation(b, ftspanner.OracleOptions{DisableMemo: true})
}

// BenchmarkAblationNaive turns off both accelerations the oracle has, so
// it measures the plain hitting-set branching with no state kept between
// queries.
func BenchmarkAblationNaive(b *testing.B) {
	benchAblation(b, ftspanner.OracleOptions{DisablePruning: true, DisableMemo: true})
}

// Fault-oracle micro-benchmark (the hot path of everything above).
func BenchmarkOracleQuery(b *testing.B) {
	g, err := ftspanner.RandomGraph(120, 1200, 2)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ftspanner.BuildVFT(g, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
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
}
