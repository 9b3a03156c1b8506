// Package ftspanner builds fault-tolerant graph spanners.
//
// It implements the fault-tolerant greedy algorithm of Bodwin and Patel ("A
// Trivial Yet Optimal Solution to Vertex Fault Tolerant Spanners", PODC
// 2019): scan edges by increasing weight and keep an edge iff some set of at
// most f vertex (or edge) faults would otherwise leave it stretched beyond
// k. The output H satisfies, for every fault set F with |F| <= f, that H\F
// is a k-spanner of G\F — with existentially optimal size
// O(n^{1+1/k'} f^{1-1/k'}) for stretch k = 2k'-1 (vertex faults).
//
// The package is a facade over the internal implementation: it re-exports
// the graph type, the builders, fault-tolerance verification, the paper's
// blocking-set machinery, and a curated set of graph generators, so
// downstream users never import internal paths.
//
// Quick start:
//
//	g := ftspanner.NewGraph(4)
//	g.MustAddEdge(0, 1, 1)
//	// ... more edges ...
//	res, err := ftspanner.BuildVFT(g, 3, 2) // 2-fault-tolerant 3-spanner
//	if err != nil { ... }
//	fmt.Println(res.Spanner.NumEdges())
package ftspanner

import (
	"io"
	"math/rand"

	"github.com/ftspanner/ftspanner/internal/baseline"
	"github.com/ftspanner/ftspanner/internal/blocking"
	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/service"
	"github.com/ftspanner/ftspanner/internal/verify"
)

// Core types, re-exported from the implementation packages.
type (
	// Graph is a weighted undirected simple graph with stable edge IDs.
	Graph = graph.Graph
	// Edge is one weighted edge of a Graph.
	Edge = graph.Edge
	// Mode selects vertex or edge faults.
	Mode = fault.Mode
	// Options configures Build.
	Options = core.Options
	// OracleOptions tunes the fault-set search inside the greedy.
	OracleOptions = fault.Options
	// Result is the output of a build: the spanner, the kept-edge mapping,
	// per-edge witness fault sets and instrumentation.
	Result = core.Result
	// Stats carries instrumentation counters of a build.
	Stats = core.Stats
	// BlockingPair is a (vertex, edge) pair of a blocking set (Definition 3).
	BlockingPair = blocking.Pair
	// BlockingEdgePair is an (edge, edge) pair of an edge blocking set.
	BlockingEdgePair = blocking.EdgePair
	// SubsampleStats reports one run of the Lemma 4 subsampling procedure.
	SubsampleStats = blocking.SubsampleStats
	// Verifier checks fault-tolerance properties of a (G, H) instance.
	Verifier = verify.Instance
	// Violation describes a broken spanner guarantee found by a Verifier.
	Violation = verify.Violation
	// Point is a 2D coordinate reported by the geometric generator.
	Point = gen.Point
)

// Fault modes.
const (
	// VertexFaults builds/checks vertex fault tolerance (VFT).
	VertexFaults = fault.Vertices
	// EdgeFaults builds/checks edge fault tolerance (EFT).
	EdgeFaults = fault.Edges
)

// Serving types, re-exported for the ftserve HTTP service.
type (
	// ServerConfig sizes a spanner-build Server (workers, queue, caches,
	// durable store).
	ServerConfig = service.Config
	// Server is the ftserve HTTP job service: an http.Handler with one
	// bounded FIFO job queue, a bounded worker pool, and a two-tier (memory
	// LRU + durable on-disk store) result cache.
	Server = service.Server
	// JobSpec describes one build job submitted to a Server.
	JobSpec = service.JobSpec
	// GeneratorSpec names a server-side graph generator in a JobSpec.
	GeneratorSpec = service.GeneratorSpec
	// CacheKey identifies a build result in a Server's cache: the input
	// graph's content digest plus every output-relevant parameter.
	CacheKey = service.CacheKey
	// MetricsSnapshot is a Server's GET /metrics payload.
	MetricsSnapshot = service.MetricsSnapshot
	// SessionSpec opens a long-lived graph session on a Server
	// (POST /v1/sessions): a mutable graph whose spanner is maintained
	// incrementally across delta batches.
	SessionSpec = service.SessionSpec
	// SessionEvent is one entry in a session's NDJSON lifecycle stream
	// (GET /v1/sessions/{id}/events).
	SessionEvent = service.SessionEvent
)

// Incremental maintenance types, re-exported from the core engine. An
// Incremental engine holds a mutable graph plus its fault-tolerant greedy
// spanner and applies delta batches (ApplyBatch) by re-scanning only the
// disturbed weight suffix. The maintained kept set is always identical to a
// from-scratch greedy build of the current graph.
type (
	// MutableGraph is a Graph supporting edge insertion and tombstoned
	// deletion, the substrate of an Incremental engine and a session.
	MutableGraph = graph.Mutable
	// IncrementalOptions configures an Incremental engine.
	IncrementalOptions = core.IncrementalOptions
	// Incremental maintains a fault-tolerant greedy spanner under edge
	// insertions and deletions.
	Incremental = core.Incremental
	// Delta is one mutation in a Batch.
	Delta = core.Delta
	// Batch is an atomic group of deltas applied by Incremental.ApplyBatch.
	Batch = core.Batch
	// BatchResult reports the spanner membership changes and work counters
	// of one applied Batch.
	BatchResult = core.BatchResult
)

// Delta operations for Batch.Deltas.
const (
	// DeltaInsert adds a new edge.
	DeltaInsert = core.DeltaInsert
	// DeltaDelete removes a live edge.
	DeltaDelete = core.DeltaDelete
	// DeltaFaultVertex removes every live edge incident to a vertex.
	DeltaFaultVertex = core.DeltaFaultVertex
)

// NewGraph returns an empty graph on n isolated vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// DecodeGraph parses a graph from the text format written by Graph.Encode.
func DecodeGraph(r io.Reader) (*Graph, error) { return graph.Decode(r) }

// GraphDigest returns g's stable SHA-256 content digest (Graph.Digest):
// the cache and persistence key for results computed from g.
func GraphDigest(g *Graph) string { return g.Digest() }

// NewServer returns a spanner-build HTTP service with its worker pool
// already running; release it with Close. With ServerConfig.StoreDir set it
// opens the durable result store first (results persist across restarts)
// and reports an error if the directory is unusable. Serve it with
// net/http:
//
//	srv, err := ftspanner.NewServer(ftspanner.ServerConfig{Workers: 8, StoreDir: "/var/lib/ftserve"})
//	if err != nil { ... }
//	defer srv.Close()
//	http.ListenAndServe(":8437", srv)
func NewServer(cfg ServerConfig) (*Server, error) { return service.New(cfg) }

// NewIncremental returns an incremental maintenance engine over initial
// (nil for an empty graph) with its spanner already built. Apply mutations
// with ApplyBatch; read the current graph and kept edge set with Current.
func NewIncremental(initial *Graph, opts IncrementalOptions) (*Incremental, error) {
	return core.NewIncremental(initial, opts)
}

// Build runs the fault-tolerant greedy algorithm with full control over the
// options. Most callers use BuildVFT or BuildEFT. With Options.Parallelism
// > 1 the edge scan speculates over same-weight batches on a worker pool;
// the kept-edge set is provably identical to the sequential scan's at every
// setting.
func Build(g *Graph, opts Options) (*Result, error) { return core.Greedy(g, opts) }

// BuildVFT builds an f-vertex-fault-tolerant stretch-spanner of g — the
// paper's headline setting.
func BuildVFT(g *Graph, stretch float64, f int) (*Result, error) {
	return core.GreedyVFT(g, stretch, f)
}

// BuildEFT builds an f-edge-fault-tolerant stretch-spanner of g.
func BuildEFT(g *Graph, stretch float64, f int) (*Result, error) {
	return core.GreedyEFT(g, stretch, f)
}

// BuildConservative runs the polynomial-time conservative greedy: an edge
// is dropped only when f+1 pairwise disjoint within-stretch detours certify
// that no fault set can isolate it. The output is always a valid
// fault-tolerant spanner, typically (though not provably — the two scans
// evolve different intermediate spanners) no sparser than the exact
// greedy's, and each edge costs O(f) shortest-path runs instead of
// exponential-in-f search — the trade-off of the paper's closing open
// question (experiment E11).
func BuildConservative(g *Graph, opts Options) (*Result, error) {
	return core.GreedyConservative(g, opts)
}

// BaselineResult is the output of a baseline construction: the spanner and
// the input edge IDs it keeps.
type BaselineResult = baseline.Result

// BuildUnionEFT builds an f-edge-fault-tolerant stretch-spanner as the
// union of f+1 edge-disjoint greedy spanners — the provably correct folk
// baseline the greedy EFT construction is compared against (experiment E3).
func BuildUnionEFT(g *Graph, stretch float64, f int) (*BaselineResult, error) {
	return baseline.UnionEFT(g, stretch, f)
}

// BuildSamplingVFT builds an f-vertex-fault-tolerant (2k-1)-spanner in the
// Dinitz–Krauthgamer style: unions of fast spanners over random vertex
// subsamples. Polynomial in f where the exact greedy is exponential, at the
// price of a larger spanner.
func BuildSamplingVFT(g *Graph, k, f int, seed int64) (*BaselineResult, error) {
	return baseline.SamplingVFT(g, k, f, baseline.SamplingVFTOptions{}, rand.New(rand.NewSource(seed)))
}

// NewVerifier wraps a build result for fault-tolerance checking.
func NewVerifier(res *Result) (*Verifier, error) {
	return verify.NewInstance(res.Input, res.Spanner, res.Kept)
}

// NewVerifierFor wraps an arbitrary (G, H, kept-edge-IDs) triple — e.g. a
// BaselineResult's spanner — for fault-tolerance checking.
func NewVerifierFor(g, h *Graph, kept []int) (*Verifier, error) {
	return verify.NewInstance(g, h, kept)
}

// CheckFaults verifies that the result tolerates one specific fault set
// (vertex IDs for VFT results, input edge IDs for EFT results) at the
// result's own stretch. It returns nil if the guarantee holds and a
// *Violation describing the broken pair otherwise.
func CheckFaults(res *Result, faults []int) error {
	v, err := NewVerifier(res)
	if err != nil {
		return err
	}
	return v.CheckFaultSet(res.Stretch, res.Mode, faults)
}

// CheckAllFaults exhaustively verifies the result against every fault set
// of size at most its f. Only feasible for small instances.
func CheckAllFaults(res *Result) error {
	v, err := NewVerifier(res)
	if err != nil {
		return err
	}
	return v.ExhaustiveCheck(res.Stretch, res.Mode, res.Faults)
}

// CheckAllFaultsParallel is CheckAllFaults spread over a worker pool
// (workers < 1 selects GOMAXPROCS), reporting the same earliest violation
// the sequential check would.
func CheckAllFaultsParallel(res *Result, workers int) error {
	v, err := NewVerifier(res)
	if err != nil {
		return err
	}
	return v.ParallelExhaustiveCheck(res.Stretch, res.Mode, res.Faults, workers)
}

// CheckRandomFaults verifies the result against trials random fault sets
// (sizes uniform in [0, f]) drawn from the given seed.
func CheckRandomFaults(res *Result, trials int, seed int64) error {
	v, err := NewVerifier(res)
	if err != nil {
		return err
	}
	return v.RandomCheck(res.Stretch, res.Mode, res.Faults, trials, rand.New(rand.NewSource(seed)))
}

// CheckRandomFaultsParallel is CheckRandomFaults distributed over a worker
// pool (workers < 1 selects GOMAXPROCS). Deterministic under seed.
func CheckRandomFaultsParallel(res *Result, trials, workers int, seed int64) error {
	v, err := NewVerifier(res)
	if err != nil {
		return err
	}
	return v.ParallelRandomCheck(res.Stretch, res.Mode, res.Faults, trials, workers, rand.New(rand.NewSource(seed)))
}

// WorstStretch returns the exact stretch of the result's spanner under one
// fault set (+Inf if some surviving edge is disconnected).
func WorstStretch(res *Result, faults []int) (float64, error) {
	v, err := NewVerifier(res)
	if err != nil {
		return 0, err
	}
	return v.WorstEdgeStretch(res.Mode, faults)
}

// BlockingSet extracts the paper's Lemma 3 blocking set from a VFT result;
// its pairs reference the spanner's own edge IDs and its size is at most
// f·|E(H)|.
func BlockingSet(res *Result) ([]BlockingPair, error) {
	return blocking.FromResult(res)
}

// EdgeBlockingSet extracts the concluding remark's edge blocking set from
// an EFT result.
func EdgeBlockingSet(res *Result) ([]BlockingEdgePair, error) {
	return blocking.EdgePairsFromResult(res)
}

// Subsample runs the Lemma 4 procedure on a spanner with its blocking set
// and parameter f, using the given seed: the returned subgraph has
// ⌈n/(2f)⌉ vertices, girth above the blocking parameter, and Ω(m/f²)
// expected edges.
func Subsample(h *Graph, pairs []BlockingPair, f int, seed int64) (*Graph, *SubsampleStats, error) {
	return blocking.Subsample(h, pairs, f, rand.New(rand.NewSource(seed)))
}

// Curated generators (the full set lives in internal/gen).

// CompleteGraph returns K_n with unit weights.
func CompleteGraph(n int) *Graph { return gen.Complete(n) }

// GridGraph returns the rows×cols unit-weight grid.
func GridGraph(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// RandomGraph returns a connected random graph with n vertices and m >= n-1
// edges, deterministic under seed.
func RandomGraph(n, m int, seed int64) (*Graph, error) {
	return gen.ConnectedGNM(n, m, rand.New(rand.NewSource(seed)))
}

// RandomGeometricGraph scatters n points in the unit square and connects
// pairs within radius, weighted by Euclidean distance. It returns the graph
// and the coordinates.
func RandomGeometricGraph(n int, radius float64, seed int64) (*Graph, []Point) {
	return gen.RandomGeometric(n, radius, rand.New(rand.NewSource(seed)))
}

// RandomizeWeights returns a copy of g with weights drawn uniformly from
// [lo, hi), preserving topology and edge IDs.
func RandomizeWeights(g *Graph, lo, hi float64, seed int64) (*Graph, error) {
	return gen.RandomizeWeights(g, lo, hi, rand.New(rand.NewSource(seed)))
}

// QuantizeWeights returns a copy of g with weights drawn uniformly from the
// integer levels {1, ..., levels}, preserving topology and edge IDs. Tied
// weights form the same-weight batches that Options.Parallelism speculates
// over.
func QuantizeWeights(g *Graph, levels int, seed int64) (*Graph, error) {
	return gen.QuantizeWeights(g, levels, rand.New(rand.NewSource(seed)))
}

// LowerBoundGraph returns the BDPW blow-up on which every edge is forced
// into any f-VFT k-spanner — the witness that the paper's size bound is
// optimal.
func LowerBoundGraph(nBase, k, f int, seed int64) *Graph {
	return gen.BDPWLowerBound(nBase, k, f, rand.New(rand.NewSource(seed)))
}
