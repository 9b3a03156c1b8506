package fault

import (
	"math/rand"
	"testing"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// TestBidiAblationDifferential cross-checks the oracle with the
// bidirectional engine (default) against the unidirectional ablation: the
// two must agree on every query verdict, since both reachability tests are
// exact.
func TestBidiAblationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for inst := 0; inst < 40; inst++ {
		n := 5 + rng.Intn(12)
		g := randomConnectedGraph(rng, n, rng.Intn(3*n))
		mode := Vertices
		if inst%2 == 1 {
			mode = Edges
		}
		bidi, err := NewOracle(g, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		uni, err := NewOracle(g, mode, Options{DisableBidi: true})
		if err != nil {
			t.Fatal(err)
		}
		stretch := 1 + 2*rng.Float64()
		budget := rng.Intn(3)
		for _, e := range g.EdgesByWeight() {
			bound := stretch * e.Weight
			wb, foundBidi, err := bidi.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatal(err)
			}
			_, foundUni, err := uni.FindFaultSet(e.U, e.V, bound, budget)
			if err != nil {
				t.Fatal(err)
			}
			if foundBidi != foundUni {
				t.Fatalf("inst %d mode=%v edge (%d,%d) bound=%v budget=%d: bidi=%v uni=%v",
					inst, mode, e.U, e.V, bound, budget, foundBidi, foundUni)
			}
			if foundBidi && !witnessHolds(t, g, mode, e.U, e.V, bound, wb) {
				t.Fatalf("inst %d: invalid bidi witness %v for (%d,%d)", inst, wb, e.U, e.V)
			}
		}
	}
}

// TestValidateWitness pins the revalidation semantics the parallel greedy's
// commit loop relies on.
func TestValidateWitness(t *testing.T) {
	// 0-3 via 1 (short) and via 2 (short); direct heavy edge 0-3.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 3, 1)

	oracle, err := NewOracle(g, Vertices, Options{EdgeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := oracle.ValidateWitness(0, 3, 3, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("{1,2} disconnects 0-3: must validate")
	}
	ok, err = oracle.ValidateWitness(0, 3, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("{1} leaves the 0-2-3 detour: must not validate")
	}
	// Witness containing an endpoint is never valid.
	ok, err = oracle.ValidateWitness(0, 3, 3, []int{0})
	if err != nil || ok {
		t.Fatalf("endpoint in witness: ok=%v err=%v, want false,nil", ok, err)
	}
	if _, err = oracle.ValidateWitness(0, 3, 3, []int{99}); err == nil {
		t.Fatal("out-of-range witness element must error")
	}
	if _, err = oracle.ValidateWitness(0, 0, 3, nil); err == nil {
		t.Fatal("coincident endpoints must error")
	}

	// Edge mode: faulting both short paths' first edges within the bound.
	eo, err := NewOracle(g, Edges, Options{EdgeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ok, err = eo.ValidateWitness(0, 3, 1.5, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("edge witness {0,2} must validate at bound 1.5")
	}

	// A validated witness fed back via NoteWitness should serve the next
	// identical query from the cache.
	oracle.NoteWitness([]int{1, 2})
	before := oracle.WitnessHits()
	_, found, err := oracle.FindFaultSet(0, 3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("witness {1,2} exists for budget 2")
	}
	if oracle.WitnessHits() != before+1 {
		t.Fatalf("expected a witness-cache hit after NoteWitness, hits %d -> %d",
			before, oracle.WitnessHits())
	}
}
