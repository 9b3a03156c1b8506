package core

import (
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"math/rand"
)

// phaseFixture builds a quantized-weight random graph with same-weight
// batches big enough to exercise the speculative path.
func phaseFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ConnectedGNM(60, 500, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	q := graph.New(g.NumVertices())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		q.MustAddEdge(e.U, e.V, float64(1+i%6))
	}
	return q
}

// TestPhaseHookEvents checks the Options.Phase contract: one
// batch-speculate and one batch-commit event per speculative batch, one
// respec-round event per re-speculation round, counts consistent with
// Stats, and the hook does not change the build's output.
func TestPhaseHookEvents(t *testing.T) {
	g := phaseFixture(t)
	base, err := Greedy(g, Options{Stretch: 3, Faults: 1, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}

	var speculated, committed, rounds int
	var lastCommitKept int
	orderOK := true
	prevSpecBatch, prevCommitBatch := -1, -1
	opts := Options{
		Stretch: 3, Faults: 1, Mode: fault.Vertices,
		Parallelism: 4,
		Phase: func(info PhaseInfo) {
			switch info.Phase {
			case PhaseBatchSpeculate:
				if info.Batch != prevSpecBatch+1 {
					orderOK = false
				}
				prevSpecBatch = info.Batch
				speculated++
			case PhaseBatchCommit:
				if info.Batch != prevCommitBatch+1 || info.Batch > prevSpecBatch {
					orderOK = false
				}
				prevCommitBatch = info.Batch
				committed++
				lastCommitKept = info.Kept
			case PhaseRespecRound:
				if info.Edges <= 0 {
					orderOK = false
				}
				rounds++
			default:
				t.Errorf("unknown phase %q", info.Phase)
			}
		},
	}
	res, err := Greedy(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !orderOK {
		t.Error("phase events arrived out of order")
	}
	if int64(speculated) != res.Stats.SpecBatches {
		t.Errorf("batch-speculate events = %d, Stats.SpecBatches = %d", speculated, res.Stats.SpecBatches)
	}
	if int64(committed) != res.Stats.SpecBatches {
		t.Errorf("batch-commit events = %d, Stats.SpecBatches = %d", committed, res.Stats.SpecBatches)
	}
	if int64(rounds) != res.Stats.SpecRounds {
		t.Errorf("respec-round events = %d, Stats.SpecRounds = %d", rounds, res.Stats.SpecRounds)
	}
	if speculated == 0 {
		t.Fatal("fixture produced no speculative batches; phases untested")
	}
	if lastCommitKept != len(res.Kept) {
		t.Errorf("final batch-commit Kept = %d, want %d", lastCommitKept, len(res.Kept))
	}
	// The hook is observational: identical output with and without it.
	if got, want := res.Spanner.Digest(), base.Spanner.Digest(); got != want {
		t.Errorf("phase hook changed the spanner: %s != %s", got, want)
	}
}

// TestPhaseHookSequentialSilent pins that sequential scans emit no phase
// events (they have no internal phases).
func TestPhaseHookSequentialSilent(t *testing.T) {
	g := phaseFixture(t)
	fired := 0
	_, err := Greedy(g, Options{
		Stretch: 3, Faults: 1, Mode: fault.Vertices,
		Phase: func(PhaseInfo) { fired++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("sequential scan fired %d phase events, want 0", fired)
	}
}
