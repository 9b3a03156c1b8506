package spanner

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// BaswanaSen builds a (2k-1)-spanner with expected size O(k·n^{1+1/k}) using
// the randomized clustering algorithm of Baswana and Sen (2007). It runs in
// near-linear time, which is why the DK-style sampling baseline uses it as
// its black-box spanner on every sampled subgraph.
//
// k must be >= 1; k == 1 returns the whole graph (stretch 1).
func BaswanaSen(g *graph.Graph, k int, rng *rand.Rand) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: baswana-sen needs k >= 1, got %d", k)
	}
	n := g.NumVertices()
	res := &Result{Spanner: graph.New(n)}
	if k == 1 {
		for _, e := range g.Edges() {
			res.Spanner.MustAddEdge(e.U, e.V, e.Weight)
			res.Kept = append(res.Kept, e.ID)
		}
		return res, nil
	}

	added := make([]bool, g.NumEdges()) // edge already in the spanner
	alive := make([]bool, g.NumEdges()) // edge still under consideration
	cluster := make([]int, n)           // cluster id per vertex, -1 = retired
	sampleP := math.Pow(float64(n), -1.0/float64(k))
	addEdge := func(e graph.Edge) {
		if !added[e.ID] {
			added[e.ID] = true
			res.Spanner.MustAddEdge(e.U, e.V, e.Weight)
			res.Kept = append(res.Kept, e.ID)
		}
	}
	for i := range alive {
		alive[i] = true
	}
	for v := range cluster {
		cluster[v] = v // singleton clusters; cluster id = original center
	}

	// lightest caches, per vertex scan, the lightest alive edge into each
	// neighboring cluster (keyed by the *old* cluster id for the round).
	lightest := make(map[int]graph.Edge, 8)
	clearLightest := func() {
		for c := range lightest {
			delete(lightest, c)
		}
	}
	// seen lists lightest's clusters in the order the adjacency scan first
	// meets them: the order in which their edges enter the spanner. Map order
	// would make the kept order, and with it the spanner's edge IDs and
	// digest, differ from run to run under one seed.
	var seen []int
	scanNeighborClusters := func(v int) {
		clearLightest()
		seen = seen[:0]
		for _, arc := range g.Neighbors(v) {
			if !alive[arc.ID] {
				continue
			}
			c := cluster[arc.To]
			if c < 0 || c == cluster[v] {
				continue
			}
			e := g.Edge(arc.ID)
			if best, ok := lightest[c]; !ok {
				seen = append(seen, c)
				lightest[c] = e
			} else if less(e, best) {
				lightest[c] = e
			}
		}
	}

	// Phase 1: k-1 rounds of cluster sampling.
	for round := 1; round <= k-1; round++ {
		sampled := make(map[int]bool)
		for v := 0; v < n; v++ {
			if c := cluster[v]; c >= 0 {
				if _, decided := sampled[c]; !decided {
					sampled[c] = rng.Float64() < sampleP
				}
			}
		}

		newCluster := make([]int, n)
		copy(newCluster, cluster)
		for v := 0; v < n; v++ {
			if cluster[v] < 0 || sampled[cluster[v]] {
				continue // retired, or cluster survives with v in it
			}
			scanNeighborClusters(v)

			// Lightest edge into a sampled neighbor cluster, if any.
			var (
				bestSampled graph.Edge
				haveSampled bool
			)
			for c, e := range lightest {
				if sampled[c] && (!haveSampled || less(e, bestSampled)) {
					bestSampled, haveSampled = e, true
				}
			}

			if !haveSampled {
				// No sampled neighbor: keep the lightest edge to every
				// neighbor cluster, then retire v with all its edges.
				for _, c := range seen {
					addEdge(lightest[c])
				}
				for _, arc := range g.Neighbors(v) {
					alive[arc.ID] = false
				}
				newCluster[v] = -1
				continue
			}

			// Join the sampled cluster via its lightest edge; also keep the
			// lightest edge to every strictly lighter neighbor cluster, and
			// drop all edges into those clusters and the joined one.
			joined := cluster[bestSampled.Other(v)]
			addEdge(bestSampled)
			newCluster[v] = joined
			for _, c := range seen {
				if e := lightest[c]; c != joined && less(e, bestSampled) {
					addEdge(e)
				}
			}
			for _, arc := range g.Neighbors(v) {
				if !alive[arc.ID] {
					continue
				}
				c := cluster[arc.To]
				if c < 0 || c == cluster[v] {
					continue
				}
				if c == joined || less(lightest[c], bestSampled) {
					alive[arc.ID] = false
				}
			}
		}
		cluster = newCluster

		// Remove edges that became intra-cluster.
		for _, e := range g.Edges() {
			if alive[e.ID] && cluster[e.U] >= 0 && cluster[e.U] == cluster[e.V] {
				alive[e.ID] = false
			}
		}
	}

	// Phase 2: every vertex keeps its lightest alive edge into each
	// remaining cluster.
	for v := 0; v < n; v++ {
		scanNeighborClusters(v)
		for _, c := range seen {
			addEdge(lightest[c])
		}
	}
	return res, nil
}

// less orders edges by (weight, ID); the deterministic tie-break keeps the
// construction reproducible under a fixed seed.
func less(a, b graph.Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.ID < b.ID
}
