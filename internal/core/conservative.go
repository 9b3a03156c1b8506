package core

import (
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// GreedyConservative is a polynomial-time variant of the fault-tolerant
// greedy, addressing the paper's closing open question ("it would be
// interesting to improve this dependence, or perhaps to find a different
// fast algorithm").
//
// Instead of deciding exactly whether some fault set F (|F| <= f) stretches
// the edge — which is exponential in f — it greedily packs pairwise
// disjoint detours of weight <= k·w(u,v) in the spanner so far and REJECTS
// the edge only when it finds f+1 of them. Rejection is sound: any fault
// set of size <= f misses one of the f+1 disjoint detours, so the edge
// stays within stretch under every fault set (this is the same packing
// bound the exact oracle uses for pruning). When fewer disjoint detours
// exist the edge is kept, possibly unnecessarily.
//
// Consequently the output is ALWAYS a valid f-fault-tolerant k-spanner,
// typically (not provably — the two scans evolve different intermediate
// spanners, and a denser conservative prefix can pack detours the exact
// greedy's sparser prefix lacks) no sparser than the exact greedy's, and
// each edge costs at most f+2 bounded Dijkstra runs — polynomial in f.
// Experiment E11 measures the size/time trade-off against the exact
// algorithm.
//
// It is the greedy's scan loop with the packing count as the keep test;
// Options.Parallelism is ignored. The result's Witness map is nil:
// conservative keeps carry no fault-set witnesses, so Lemma 3 blocking-set
// extraction does not apply.
func GreedyConservative(g *graph.Graph, opts Options) (*Result, error) {
	return build(g, opts, true)
}

// ConservativeVFT is GreedyConservative with vertex faults.
func ConservativeVFT(g *graph.Graph, stretch float64, faults int) (*Result, error) {
	return GreedyConservative(g, Options{Stretch: stretch, Faults: faults, Mode: fault.Vertices})
}

// ConservativeEFT is GreedyConservative with edge faults.
func ConservativeEFT(g *graph.Graph, stretch float64, faults int) (*Result, error) {
	return GreedyConservative(g, Options{Stretch: stretch, Faults: faults, Mode: fault.Edges})
}
