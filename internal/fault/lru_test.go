package fault

import (
	"reflect"
	"testing"
)

// TestWitnessCacheRecencyLRU pins the witness cache's policy: at most
// witnessCacheSize distinct sets, most recent first; a cache hit and a
// re-remembered set both move to the front, an equal set is never stored
// twice, and a new set at capacity evicts the least recent entry.
func TestWitnessCacheRecencyLRU(t *testing.T) {
	const side = 3
	cut := 2 * side // on the two-cliques graph {cut} witnesses every cross pair
	// Each step remembers its set; a nil step runs a cross-pair query that
	// the cached {cut} must answer as a hit.
	cases := []struct {
		name  string
		steps [][]int
		want  [][]int
	}{
		{"fills to capacity newest first",
			[][]int{{0}, {1}, {2}, {3}},
			[][]int{{3}, {2}, {1}, {0}}},
		{"evicts the tail at capacity",
			[][]int{{0}, {1}, {2}, {3}, {4}},
			[][]int{{4}, {3}, {2}, {1}}},
		{"dedups an equal set in any order",
			[][]int{{0, 1}, {2}, {3}, {1, 0}},
			[][]int{{0, 1}, {3}, {2}}},
		{"re-remember moves the tail to the front",
			[][]int{{0}, {1}, {2}, {3}, {0}},
			[][]int{{0}, {3}, {2}, {1}}},
		{"hit moves to the front",
			[][]int{{cut}, {1}, {2}, {3}, nil},
			[][]int{{cut}, {3}, {2}, {1}}},
		{"a hit entry survives the next eviction",
			[][]int{{cut}, {1}, {2}, {3}, nil, {4}},
			[][]int{{4}, {cut}, {3}, {2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := NewOracle(newTwoCliquesGraph(side), Vertices, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range tc.steps {
				if set != nil {
					o.remember(set)
					continue
				}
				hits := o.WitnessHits()
				w, found, err := o.FindFaultSet(0, side, 10, 1)
				if err != nil || !found || !reflect.DeepEqual(w, []int{cut}) {
					t.Fatalf("cross query: witness %v found=%v err=%v, want [%d]", w, found, err, cut)
				}
				if o.WitnessHits() != hits+1 {
					t.Fatalf("cross query branched instead of hitting the cached {%d}", cut)
				}
			}
			if len(o.witnesses) > witnessCacheSize {
				t.Fatalf("cache holds %d entries over capacity %d", len(o.witnesses), witnessCacheSize)
			}
			if !reflect.DeepEqual(o.witnesses, tc.want) {
				t.Fatalf("cache %v, want %v", o.witnesses, tc.want)
			}
		})
	}
}
