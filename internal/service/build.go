package service

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/ftspanner/ftspanner/internal/baseline"
	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/obs"
)

// maxGeneratedSize caps generator parameters, and the vertex count an inline
// graph may declare, so a single request cannot ask the server to
// materialize an absurdly large graph.
const maxGeneratedSize = 1 << 20

// maxParallelism caps the per-job speculative worker count: each worker
// owns a full oracle (solver, memo table, bitsets), so an unbounded client
// value would be a memory amplification lever.
const maxParallelism = 64

// maxPipeline bounds the ignored JobSpec.Pipeline field (see its doc).
const maxPipeline = 64

// newRand is the service's deterministic RNG constructor: same seed, same
// randomized build or verification outcome.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// normalizeSpec fills defaults and rejects invalid parameter combinations.
// It mutates spec in place.
func normalizeSpec(spec *JobSpec) error {
	if spec.Mode == "" {
		spec.Mode = fault.Vertices.String()
	}
	if spec.Algorithm == "" {
		spec.Algorithm = AlgoGreedy
	}
	if _, err := parseMode(spec.Mode); err != nil {
		return err
	}
	if err := normalizePriority(spec); err != nil {
		return err
	}
	if spec.Stretch < 1 || math.IsInf(spec.Stretch, 0) || math.IsNaN(spec.Stretch) {
		return fmt.Errorf("stretch must be a finite number >= 1, got %v", spec.Stretch)
	}
	if spec.Faults < 0 {
		return fmt.Errorf("faults must be >= 0, got %d", spec.Faults)
	}
	if spec.Parallelism < 0 || spec.Parallelism > maxParallelism {
		return fmt.Errorf("parallelism must be in [0,%d], got %d", maxParallelism, spec.Parallelism)
	}
	if spec.Parallelism > 1 && spec.Algorithm != AlgoGreedy {
		return fmt.Errorf("parallelism applies to algorithm %q only, got %q", AlgoGreedy, spec.Algorithm)
	}
	if spec.Pipeline < 0 || spec.Pipeline > maxPipeline {
		return fmt.Errorf("pipeline must be in [0,%d], got %d", maxPipeline, spec.Pipeline)
	}
	if spec.Pipeline > 0 && spec.Parallelism <= 1 {
		return fmt.Errorf("pipeline requires parallelism > 1, got parallelism %d", spec.Parallelism)
	}
	if spec.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms must be >= 0, got %d", spec.DeadlineMs)
	}
	switch spec.Algorithm {
	case AlgoGreedy, AlgoConservative:
	case AlgoUnionEFT:
		if spec.Mode != fault.Edges.String() {
			return fmt.Errorf("algorithm %q is edge-fault only; set mode to %q", AlgoUnionEFT, fault.Edges)
		}
	case AlgoSamplingVFT:
		if spec.Mode != fault.Vertices.String() {
			return fmt.Errorf("algorithm %q is vertex-fault only; set mode to %q", AlgoSamplingVFT, fault.Vertices)
		}
		if k := samplingK(spec.Stretch); k < 1 {
			return fmt.Errorf("algorithm %q needs stretch = 2k-1 for integer k >= 1, got %v", AlgoSamplingVFT, spec.Stretch)
		}
	default:
		return fmt.Errorf("unknown algorithm %q (want %s)", spec.Algorithm,
			strings.Join([]string{AlgoGreedy, AlgoConservative, AlgoUnionEFT, AlgoSamplingVFT}, ", "))
	}
	if (spec.Graph == "") == (spec.Generator == nil) {
		return fmt.Errorf("exactly one of graph and generator must be set")
	}
	return nil
}

// samplingK inverts stretch = 2k-1; it returns 0 when stretch is not an odd
// integer >= 1.
func samplingK(stretch float64) int {
	k := (stretch + 1) / 2
	if k != math.Trunc(k) {
		return 0
	}
	return int(k)
}

func parseMode(s string) (fault.Mode, error) {
	switch s {
	case fault.Vertices.String():
		return fault.Vertices, nil
	case fault.Edges.String():
		return fault.Edges, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want %q or %q)", s, fault.Vertices, fault.Edges)
	}
}

// materialize produces the input graph of a normalized spec: either by
// decoding the inline text or by running the named generator.
func materialize(spec *JobSpec) (*graph.Graph, error) {
	if spec.Graph != "" {
		g, err := graph.DecodeString(spec.Graph, maxGeneratedSize)
		if err != nil {
			return nil, fmt.Errorf("inline graph: %w", err)
		}
		return g, nil
	}
	gs := spec.Generator
	if gs.N < 0 || gs.M < 0 || gs.Rows < 0 || gs.Cols < 0 {
		return nil, fmt.Errorf("generator parameters must be non-negative")
	}
	// Individual parameters are bounded first so the int64 products below
	// cannot overflow (maxGeneratedSize² fits comfortably in 63 bits); then
	// the OUTPUT size is bounded, because complete and geometric graphs
	// have up to n(n-1)/2 edges — a modest n already means a huge graph.
	if gs.N > maxGeneratedSize || gs.M > maxGeneratedSize || gs.Rows > maxGeneratedSize || gs.Cols > maxGeneratedSize {
		return nil, fmt.Errorf("generator parameters must be at most %d", int64(maxGeneratedSize))
	}
	switch gs.Name {
	case "complete":
		if pairs := int64(gs.N) * int64(gs.N-1) / 2; pairs > maxGeneratedSize {
			return nil, fmt.Errorf("generator complete: n=%d means %d edges, over the cap of %d", gs.N, pairs, int64(maxGeneratedSize))
		}
		return gen.Complete(gs.N), nil
	case "grid":
		if cells := int64(gs.Rows) * int64(gs.Cols); cells > maxGeneratedSize {
			return nil, fmt.Errorf("generator grid: %dx%d means %d vertices, over the cap of %d", gs.Rows, gs.Cols, cells, int64(maxGeneratedSize))
		}
		return gen.Grid(gs.Rows, gs.Cols), nil
	case "random":
		g, err := gen.ConnectedGNM(gs.N, gs.M, newRand(gs.Seed))
		if err != nil {
			return nil, fmt.Errorf("generator random: %w", err)
		}
		return g, nil
	case "geometric":
		if gs.Radius <= 0 || math.IsInf(gs.Radius, 0) || math.IsNaN(gs.Radius) {
			return nil, fmt.Errorf("generator geometric: radius must be positive and finite, got %v", gs.Radius)
		}
		if pairs := int64(gs.N) * int64(gs.N-1) / 2; pairs > maxGeneratedSize {
			return nil, fmt.Errorf("generator geometric: n=%d means up to %d edges, over the cap of %d", gs.N, pairs, int64(maxGeneratedSize))
		}
		g, _ := gen.RandomGeometric(gs.N, gs.Radius, newRand(gs.Seed))
		return g, nil
	default:
		return nil, fmt.Errorf("unknown generator %q (want complete, grid, random, geometric)", gs.Name)
	}
}

// cacheKeyFor derives the result cache key of a normalized spec and its
// materialized graph. Only sampling-vft output depends on the seed, so the
// seed is zeroed for every other algorithm. Parallelism and Pipeline never
// enter the key: the speculative greedy's kept-edge set is provably
// identical to the sequential one's at every worker count, so one cached
// result serves every setting (and in-flight dedup coalesces a P=4
// submission onto a running P=0 build).
func cacheKeyFor(spec JobSpec, g *graph.Graph) CacheKey {
	key := CacheKey{
		Digest:    g.Digest(),
		Stretch:   spec.Stretch,
		Faults:    spec.Faults,
		Mode:      spec.Mode,
		Algorithm: spec.Algorithm,
	}
	if spec.Algorithm == AlgoSamplingVFT {
		key.Seed = spec.Seed
	}
	return key
}

// build runs the job's algorithm to completion, reporting progress and
// honoring ctx through the core Progress hook where the algorithm supports
// it. It is called on a worker goroutine. Observability rides along: oracle
// query latencies feed the sampled histogram, build-phase boundaries become
// events on the job's build span.
func (s *Server) build(ctx context.Context, job *Job) (*buildResult, error) {
	spec := job.spec
	mode, err := parseMode(spec.Mode)
	if err != nil {
		return nil, err
	}
	hook := func(scanned, kept int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job.progress(scanned, kept)
		return nil
	}
	switch spec.Algorithm {
	case AlgoGreedy, AlgoConservative:
		job.mu.Lock()
		span := job.buildSpan
		job.mu.Unlock()
		opts := core.Options{
			Stretch:     spec.Stretch,
			Faults:      spec.Faults,
			Mode:        mode,
			Progress:    hook,
			Parallelism: spec.Parallelism,
			Chaos:       s.cfg.Chaos,
			Oracle: fault.Options{
				ObserveQuery: func(d time.Duration) { s.lat.oracleQuery.Record(d) },
			},
			Phase: func(info core.PhaseInfo) {
				switch info.Phase {
				case core.PhaseBatchSpeculate:
					span.Event(info.Phase,
						obs.Attr{Key: "batch", Value: int64(info.Batch)},
						obs.Attr{Key: "edges", Value: int64(info.Edges)})
				case core.PhaseBatchCommit:
					span.Event(info.Phase,
						obs.Attr{Key: "batch", Value: int64(info.Batch)},
						obs.Attr{Key: "kept", Value: int64(info.Kept)})
				case core.PhaseRespecRound:
					span.Event(info.Phase,
						obs.Attr{Key: "edges", Value: int64(info.Edges)},
						obs.Attr{Key: "pending", Value: int64(info.Pending)})
				}
			},
		}
		var res *core.Result
		if spec.Algorithm == AlgoGreedy {
			res, err = core.Greedy(job.graph, opts)
		} else {
			res, err = core.GreedyConservative(job.graph, opts)
		}
		if err != nil {
			return nil, err
		}
		return &buildResult{input: res.Input, kept: res.Kept, stats: res.Stats}, nil
	case AlgoUnionEFT:
		res, err := baseline.UnionEFT(job.graph, spec.Stretch, spec.Faults)
		if err != nil {
			return nil, err
		}
		return &buildResult{input: job.graph, kept: res.Kept}, nil
	case AlgoSamplingVFT:
		res, err := baseline.SamplingVFT(job.graph, samplingK(spec.Stretch), spec.Faults,
			baseline.SamplingVFTOptions{}, newRand(spec.Seed))
		if err != nil {
			return nil, err
		}
		return &buildResult{input: job.graph, kept: res.Kept}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}
}
