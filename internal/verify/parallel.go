package verify

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/sssp"
)

// ParallelExhaustiveCheck is ExhaustiveCheck spread over a worker pool:
// every fault set of size at most f is verified, batched across `workers`
// goroutines (GOMAXPROCS if workers < 1). On failure the violation earliest
// in enumeration order is returned, matching the sequential check. Workers
// stop early once a violation is found; all goroutines exit before return.
func (inst *Instance) ParallelExhaustiveCheck(stretch float64, mode fault.Mode, f, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	universe := inst.universe(mode)

	type batch struct {
		start int // global index of the first set in the batch
		sets  [][]int
	}
	const batchSize = 64
	var (
		jobs     = make(chan batch)
		mu       sync.Mutex
		bestIdx  = -1
		bestErr  error
		violated atomic.Bool
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := sssp.BorrowSolver(inst.G.NumVertices())
			defer sssp.ReturnSolver(solver)
			sc := inst.newMaskScratch()
			for b := range jobs {
				for i, faults := range b.sets {
					idx := b.start + i
					if violated.Load() {
						mu.Lock()
						skip := bestIdx >= 0 && idx > bestIdx
						mu.Unlock()
						if skip {
							continue
						}
					}
					if err := inst.checkFaultSet(solver, sc, stretch, mode, faults); err != nil {
						violated.Store(true)
						mu.Lock()
						if bestIdx < 0 || idx < bestIdx {
							bestIdx, bestErr = idx, err
						}
						mu.Unlock()
					}
				}
			}
		}()
	}

	// Produce batches in enumeration order; stop early on violation.
	next := 0
	cur := batch{start: 0}
	flush := func() {
		if len(cur.sets) > 0 {
			jobs <- cur
			cur = batch{start: next}
		}
	}
	for size := 0; size <= f && !violated.Load(); size++ {
		combinations(universe, size, func(faults []int) bool {
			cur.sets = append(cur.sets, append([]int(nil), faults...))
			next++
			if len(cur.sets) == batchSize {
				flush()
			}
			return !violated.Load()
		})
	}
	flush()
	close(jobs)
	wg.Wait()
	return bestErr
}

// ParallelRandomCheck is RandomCheck spread over a worker pool: `trials`
// random fault sets (sizes uniform in [0, f]) are verified concurrently by
// `workers` goroutines (GOMAXPROCS if workers < 1). The fault sets are
// pre-drawn from rng on the calling goroutine, and on failure the violation
// with the smallest trial index is returned, so results are deterministic
// for a given seed regardless of scheduling. Every goroutine exits before
// the function returns.
func (inst *Instance) ParallelRandomCheck(stretch float64, mode fault.Mode, f, trials, workers int, rng *rand.Rand) error {
	if trials <= 0 {
		return nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	draw := inst.newFaultSampler(mode, f, rng)
	jobs := make([][]int, trials)
	for i := range jobs {
		jobs[i] = draw.next()
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		bestIdx  = -1
		bestErr  error
		violated atomic.Bool
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := sssp.BorrowSolver(inst.G.NumVertices())
			defer sssp.ReturnSolver(solver)
			sc := inst.newMaskScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				if violated.Load() {
					// A violation exists; only earlier indices still matter.
					mu.Lock()
					stop := bestIdx >= 0 && i > bestIdx
					mu.Unlock()
					if stop {
						continue // drain cheaply; later trials can't win
					}
				}
				if err := inst.checkFaultSet(solver, sc, stretch, mode, jobs[i]); err != nil {
					violated.Store(true)
					mu.Lock()
					if bestIdx < 0 || i < bestIdx {
						bestIdx, bestErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return bestErr
}
