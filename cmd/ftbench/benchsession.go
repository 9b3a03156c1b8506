package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"github.com/ftspanner/ftspanner"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// Session delta-stream cases: the persistent incremental engine measured on
// N-batch streams over the Large fixture (n=150, m=2000, 12 quantized weight
// levels). Each *Scratch case runs the DisableStateReuse ablation — every
// batch rebuilds the prefix graph and fault oracle from scratch, the
// pre-PR-10 behavior — and the paired default case rewinds the retained
// state instead, recording the headline speedup_vs_baseline. One op is one
// applied delta batch: SessionSmallDelta alternates inserting and deleting a
// single top-weight edge (a minimal dirty suffix), SessionChurn cycles a
// four-edge batch across the top three weight levels (a wider suffix with
// mixed decisions). SessionPublish is SessionSmallDelta plus what a
// session does after every batch: one op is ApplyBatch and then Snapshot,
// the published state with its digest.
type sessionCase struct {
	name     string
	scratch  bool // run with DisableStateReuse (the from-scratch baseline)
	baseline string
	churn    bool // 4-edge mixed-weight batches instead of a single edge
	publish  bool // take a Snapshot after every batch
}

var sessionCases = []sessionCase{
	{name: "SessionSmallDeltaScratch", scratch: true},
	{name: "SessionSmallDelta", baseline: "SessionSmallDeltaScratch"},
	{name: "SessionChurnScratch", scratch: true, churn: true},
	{name: "SessionChurn", baseline: "SessionChurnScratch", churn: true},
	{name: "SessionPublish", publish: true},
}

// sessionFixture builds the delta-stream substrate: the Large quantized
// graph, a deterministic set of free vertex pairs for the stream to cycle,
// and the top weight level.
func sessionFixture() (*ftspanner.Graph, [][2]int, float64, error) {
	g, err := ftspanner.RandomGraph(150, 2000, 7)
	if err != nil {
		return nil, nil, 0, err
	}
	g, err = ftspanner.QuantizeWeights(g, 12, 7)
	if err != nil {
		return nil, nil, 0, err
	}
	var pairs [][2]int
	for u := 0; u < g.NumVertices() && len(pairs) < 4; u++ {
		for v := u + 1; v < g.NumVertices() && len(pairs) < 4; v++ {
			if !g.HasEdge(u, v) {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	if len(pairs) < 4 {
		return nil, nil, 0, fmt.Errorf("benchjson: session fixture has fewer than 4 free pairs")
	}
	maxW := 0.0
	for _, e := range g.Edges() {
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	return g, pairs, maxW, nil
}

// sessionBatch is the i-th batch of the stream: even batches insert the
// case's edge set near the top of the weight range, odd batches delete it
// again, so the stream is valid for any iteration count.
func sessionBatch(i int, churn bool, pairs [][2]int, maxW float64) ftspanner.Batch {
	k := 1
	if churn {
		k = 4
	}
	var b ftspanner.Batch
	for j := 0; j < k; j++ {
		u, v := pairs[j][0], pairs[j][1]
		if i%2 == 0 {
			w := maxW
			if churn {
				w = maxW - float64(j%3)
			}
			b.Deltas = append(b.Deltas, ftspanner.Delta{Op: ftspanner.DeltaInsert, U: u, V: v, Weight: w})
		} else {
			b.Deltas = append(b.Deltas, ftspanner.Delta{Op: ftspanner.DeltaDelete, U: u, V: v})
		}
	}
	return b
}

func sessionEngine(g *ftspanner.Graph, scratch bool) (*ftspanner.Incremental, error) {
	return ftspanner.NewIncremental(g, ftspanner.IncrementalOptions{
		Stretch: 3, Faults: 2, Mode: ftspanner.VertexFaults,
		DisableStateReuse: scratch,
	})
}

// sessionSpanner returns the engine's current spanner digest and kept count.
func sessionSpanner(eng *ftspanner.Incremental) (string, int, error) {
	mat, kept, err := eng.Current()
	if err != nil {
		return "", 0, err
	}
	sp := graph.New(mat.NumVertices())
	for _, id := range kept {
		e := mat.Edge(id)
		sp.MustAddEdge(e.U, e.V, e.Weight)
	}
	return sp.Digest(), len(kept), nil
}

// sessionBenchEntries measures the session cases and returns their report
// entries. The instrumented pass drives the reuse engine and its ablation
// twin through the same 256-batch stream, verifying byte-identical spanner
// digests after every batch and zero fault.NewOracle constructions on every
// batch of the reuse engine (its initial build keeps its state, so batch 0
// rewinds too) — enforced at generation time like the parallel determinism
// check.
func sessionBenchEntries(out io.Writer) ([]componentBench, error) {
	g, pairs, maxW, err := sessionFixture()
	if err != nil {
		return nil, err
	}

	entries := make([]componentBench, 0, len(sessionCases))
	for _, c := range sessionCases {
		// Instrumented pass: counters, digests, and the reuse guarantees.
		eng, err := sessionEngine(g, c.scratch)
		if err != nil {
			return nil, err
		}
		twin, err := sessionEngine(g, !c.scratch)
		if err != nil {
			return nil, err
		}
		// Long enough that one Dijkstra is under 0.3% of every case's
		// count, so a sub-1% change in the session path's work shows.
		const streamLen = 256
		var queries, dijkstras int64
		for i := 0; i < streamLen; i++ {
			b := sessionBatch(i, c.churn, pairs, maxW)
			before := fault.Constructions()
			res, err := eng.ApplyBatch(b)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s batch %d: %w", c.name, i, err)
			}
			// Delta taken before the twin runs: Constructions is process-wide.
			constructed := fault.Constructions() - before
			if _, err := twin.ApplyBatch(b); err != nil {
				return nil, fmt.Errorf("benchjson: %s twin batch %d: %w", c.name, i, err)
			}
			queries += res.Stats.OracleQueries
			dijkstras += res.Stats.Dijkstras
			if !c.scratch && constructed != 0 {
				return nil, fmt.Errorf("benchjson: %s batch %d constructed %d oracles on a reuse batch — state reuse violated",
					c.name, i, constructed)
			}
			dEng, _, err := sessionSpanner(eng)
			if err != nil {
				return nil, err
			}
			dTwin, _, err := sessionSpanner(twin)
			if err != nil {
				return nil, err
			}
			if dEng != dTwin {
				return nil, fmt.Errorf("benchjson: %s batch %d: reuse/scratch spanner digests diverge (%s vs %s)",
					c.name, i, dEng, dTwin)
			}
			if c.publish {
				snap, err := eng.Snapshot()
				if err != nil {
					return nil, err
				}
				sum := sha256.Sum256(snap.AppendSpanner(nil))
				if d := hex.EncodeToString(sum[:]); d != dEng {
					return nil, fmt.Errorf("benchjson: %s batch %d: snapshot spanner digest %s, materialized %s",
						c.name, i, d, dEng)
				}
			}
		}
		digest, kept, err := sessionSpanner(eng)
		if err != nil {
			return nil, err
		}

		// Timed runs: engine setup (the one full greedy build) outside the
		// timer; one op = one applied delta batch.
		br := testing.Benchmark(func(b *testing.B) {
			bench, err := sessionEngine(g, c.scratch)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ApplyBatch(sessionBatch(i, c.churn, pairs, maxW)); err != nil {
					b.Fatal(err)
				}
				if c.publish {
					if _, err := bench.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		entry := componentBench{
			Name:          c.name,
			NsPerOp:       float64(br.NsPerOp()),
			AllocsPerOp:   br.AllocsPerOp(),
			BytesPerOp:    br.AllocedBytesPerOp(),
			Dijkstras:     dijkstras,
			OracleCalls:   queries,
			KeptEdges:     kept,
			SpannerDigest: digest,
		}
		if c.baseline != "" {
			entry.Baseline = c.baseline
			for _, prev := range entries {
				if prev.Name == c.baseline && entry.NsPerOp > 0 {
					entry.SpeedupVsBaseline = prev.NsPerOp / entry.NsPerOp
				}
			}
		}
		entries = append(entries, entry)
		fmt.Fprintf(out, "%-24s %12.0f ns/op %8d allocs/op %10d B/op  dijkstras=%d queries=%d",
			c.name, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp, dijkstras, queries)
		if c.baseline != "" {
			fmt.Fprintf(out, "  speedup=%.2fx vs %s", entry.SpeedupVsBaseline, c.baseline)
		}
		fmt.Fprintln(out)
	}
	return entries, nil
}
