package fault

import (
	"math/rand"
	"testing"
)

// TestMemoGenerationIsolation is the regression test for the memo lifecycle
// fix: the table is no longer wiped key-by-key per query, so stale entries
// from earlier queries must be invisible to later ones. A fresh oracle
// (empty memo) and a long-lived oracle (memo full of dead generations) must
// answer every query identically.
func TestMemoGenerationIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(8)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		mode := Vertices
		if trial%2 == 1 {
			mode = Edges
		}
		longLived, err := NewOracle(g, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.EdgesByWeight() {
			bound := (1 + 2*rng.Float64()) * e.Weight
			budget := rng.Intn(4)
			_, foundLong, err := longLived.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatal(err)
			}
			// The fresh oracle's memo cannot contain anything from earlier
			// queries; a differing answer means a stale entry leaked through
			// the generation stamps.
			fresh, err := NewOracle(g, mode, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, foundFresh, err := fresh.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatal(err)
			}
			if foundLong != foundFresh {
				t.Fatalf("trial %d edge (%d,%d) bound=%v budget=%d: long-lived oracle=%v, fresh oracle=%v (memo leak)",
					trial, e.U, e.V, bound, budget, foundLong, foundFresh)
			}
		}
	}
}

// TestMemoNotWipedPerQuery asserts the performance half of the lifecycle
// fix: entries accumulate across queries (the old implementation deleted
// every key on entry, making each query pay for all previous ones).
func TestMemoNotWipedPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 12, 30)
	// Edge mode always branches (the direct edge is itself a candidate), so
	// every query with spare budget feeds the memo table.
	o, err := NewOracle(g, Edges, Options{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	var grew bool
	prev := 0
	for _, e := range g.EdgesByWeight() {
		if _, _, err := o.FindFaultSet(e.U, e.V, 2*e.Weight, 3); err != nil {
			t.Fatal(err)
		}
		if len(o.memo) > prev && prev > 0 {
			grew = true
		}
		if len(o.memo) > prev {
			prev = len(o.memo)
		}
	}
	if !grew {
		t.Fatal("memo table never accumulated entries across queries; is it being wiped again?")
	}
	if o.memoGen != int64AsUint64(o.calls) {
		t.Fatalf("memoGen %d should have advanced once per query (%d calls)", o.memoGen, o.calls)
	}
}

func int64AsUint64(x int64) uint64 { return uint64(x) }

// TestMemoTableCapResets exercises the memory backstop: pushing the table
// past memoMaxEntries must reallocate it without affecting answers (covered
// by forcing the cap artificially low via direct map stuffing).
func TestMemoTableCapResets(t *testing.T) {
	if testing.Short() {
		t.Skip("stuffs a million-entry map; skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 10, 20)
	o, err := NewOracle(g, Vertices, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stuff the table beyond the cap with dead entries, then query: the
	// reset path must run and the query must still answer correctly.
	for i := uint64(0); i <= memoMaxEntries; i++ {
		o.memo[i] = 0
	}
	e := g.Edge(0)
	if _, _, err := o.FindFaultSet(e.U, e.V, 1.5*e.Weight, 2); err != nil {
		t.Fatal(err)
	}
	if len(o.memo) > memoMaxEntries/2 {
		t.Fatalf("memo table not reset after exceeding cap: %d entries", len(o.memo))
	}
}
