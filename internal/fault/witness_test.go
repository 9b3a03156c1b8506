package fault

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// TestCutVertexIsTheExactWitness drives one oracle through a greedy-like
// query sequence on a graph whose every cross pair has exactly one witness
// (a cut vertex), and checks that each query returns exactly that set.
func TestCutVertexIsTheExactWitness(t *testing.T) {
	// Two cliques joined through a single cut vertex c: for every
	// cross-pair query, {c} is the unique witness.
	const side = 5
	g := newTwoCliquesGraph(side)
	c := 2 * side // the cut vertex ID

	o, err := NewOracle(g, Vertices, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < side; u++ {
		for v := side; v < 2*side; v++ {
			// The bound admits the detour through c, so only deleting c
			// stretches the pair.
			w, found, err := o.FindFaultSet(u, v, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("pair (%d,%d): cut vertex should witness", u, v)
			}
			if len(w) != 1 || w[0] != c {
				t.Fatalf("pair (%d,%d): witness %v, want [%d]", u, v, w, c)
			}
		}
	}
}

// newTwoCliquesGraph builds two unit-weight K_side cliques joined through
// one extra cut vertex (ID 2*side) with weight-1 spokes to every clique
// vertex. Removing the cut vertex disconnects the cliques.
func newTwoCliquesGraph(side int) *graph.Graph {
	g := graph.New(2*side + 1)
	for a := 0; a < side; a++ {
		for b := a + 1; b < side; b++ {
			g.MustAddEdge(a, b, 1)
			g.MustAddEdge(side+a, side+b, 1)
		}
	}
	c := 2 * side
	for a := 0; a < side; a++ {
		g.MustAddEdge(a, c, 1)
		g.MustAddEdge(side+a, c, 1)
	}
	return g
}

// TestWitnessesAreCallerOwned checks that the oracle keeps no reference to
// a witness it returns or a hint it is given. core.Greedy rewrites EFT
// witnesses in place (H edge IDs to input IDs), and the parallel greedy
// passes each deferred edge's last witness back as a hint. A long-lived
// oracle whose caller mauls every returned slice and every spent hint must
// answer each query exactly like a fresh oracle, and a query must never
// write into a slice an earlier query returned.
func TestWitnessesAreCallerOwned(t *testing.T) {
	const mauled = -999
	maul := func(w []int) {
		for i := range w {
			w[i] = mauled
		}
	}
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 10, 12)
	o, err := NewOracle(g, Edges, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Oracle {
		f, err := NewOracle(g, Edges, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var answers [][]int // every earlier answer, mauled
	check := func(e graph.Edge, got []int, gotOK bool, want []int, wantOK bool) {
		t.Helper()
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("edge %d: long-lived oracle answered %v %v, fresh oracle %v %v", e.ID, got, gotOK, want, wantOK)
		}
		for _, a := range answers {
			for _, x := range a {
				if x != mauled {
					t.Fatalf("edge %d: the query wrote into an earlier answer %v", e.ID, a)
				}
			}
		}
		maul(got)
		answers = append(answers, got)
	}
	hinted := 0
	for _, e := range g.EdgesByWeight() {
		bound := 1.2 * e.Weight
		want, wantOK, err := fresh().FindFaultSet(e.U, e.V, bound, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, gotOK, err := o.FindFaultSet(e.U, e.V, bound, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(e, got, gotOK, want, wantOK)

		// The same query again, hinted with its own witness: the hint
		// validates, so the answer is the oracle's copy of the hint.
		hint := slices.Clone(want)
		if len(hint) > 0 {
			hinted++
		}
		if want, wantOK, err = fresh().FindFaultSetHinted(e.U, e.V, bound, 2, slices.Clone(hint)); err != nil {
			t.Fatal(err)
		}
		if got, gotOK, err = o.FindFaultSetHinted(e.U, e.V, bound, 2, hint); err != nil {
			t.Fatal(err)
		}
		maul(hint)
		check(e, got, gotOK, want, wantOK)
	}
	if hinted == 0 {
		t.Fatal("no query carried a hint; the fixture exercises nothing")
	}
}
