package fault

import (
	"testing"

	"github.com/ftspanner/ftspanner/internal/graph"
)

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
}
