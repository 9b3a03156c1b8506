// Speculative edge-batch parallelism for the fault-tolerant greedy.
//
// The greedy scans edges by increasing weight and asks the fault oracle one
// exact question per edge against the spanner H built so far. The scan looks
// inherently sequential — each answer may change H for the next question —
// but the package's monotonicity lemma (see the package doc) makes most of
// it parallel: an oracle answer computed against an EARLIER H stays exact in
// one direction, "no fault set then" implies "none now". Only "found
// witness" answers need re-checking, and exhibiting the witness against the
// current H (one bounded Dijkstra via Oracle.ValidateWitness) is a complete
// re-check.
//
// The engine is one blocking loop over maximal same-weight runs:
//
//  1. Speculate: a run of >= minSpeculativeBatch edges is fanned out over
//     Parallelism workers, each with a private oracle over the live spanner
//     H. The scan goroutine waits, so H does not change while the workers
//     read it (graph.Graph permits concurrent reads).
//  2. Commit: the scan goroutine walks the answers in scan order. Drops are
//     exact (the lemma). A "found" answer commits as-is while H has not
//     grown since the answers were computed, and otherwise only if its
//     witness survives ValidateWitness against the current H. An edge whose
//     witness is refuted — and every later "found" edge, since resolving an
//     earlier edge could add an edge that invalidates it — is deferred.
//  3. Rounds: the deferred edges re-enter the same speculate/commit pass on
//     the same workers, each carrying its last plausible witness as a hint.
//     Every round resolves all its drops plus at least its first "found"
//     answer (H is unchanged until the round's own first commit), so rounds
//     strictly shrink and the loop terminates. A lone straggler is decided
//     by one live hinted re-query (Stats.SpecRequeries) instead.
//
// Shorter runs (in particular the all-distinct-weight regime) are decided
// inline by the scan loop, exactly like the sequential scan.
//
// Together these reproduce, for every edge, exactly the sequential
// algorithm's decision state: when edge e is decided, H equals the
// sequential prefix-spanner for e. The differential suite in
// parallel_test.go pins kept-set and spanner-digest identity across the
// (weight structure × mode × Parallelism) matrix, and the fuzz target in
// fuzz_test.go hammers the round logic.
//
// Work accounting is conservation-checked: every speculative query ends as
// exactly one of SpecHits (its answer produced the edge's final decision)
// or SpecWaste (discarded, the edge re-entered a round), so SpecHits +
// SpecWaste == SpecQueries; and every edge that entered the speculative
// path is decided exactly once, by a speculative answer or by a live
// straggler re-query, so batch edges == SpecHits + SpecRequeries.
package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/graph"
)

// minSpeculativeBatch is the smallest same-weight run worth a worker
// dispatch; shorter runs (in particular all singletons, the distinct-weight
// regime) take the inline sequential path with zero overhead.
const minSpeculativeBatch = 2

// respecChunkPerWorker sizes a re-speculation round's query chunk as a
// multiple of the worker count. Commits stay in scan order, so a round can
// never resolve past its first still-invalid answer: querying the whole
// backlog would spend |pending| queries to resolve only the committable
// prefix, turning a keep-dense all-equal-weight scan quadratic. The chunk
// bounds each round's work by the worker pool instead, and the untouched
// tail re-enters later rounds against a larger H (when most speculative
// keeps are destined to flip to drops, later is cheaper).
const respecChunkPerWorker = 4

// specResult is one worker's speculative answer for one batch edge. Between
// rounds its witness doubles as the edge's re-query hint.
type specResult struct {
	witness []int
	found   bool
	err     error
}

// speculateBatch decides one same-weight batch: a speculative pass over
// every edge, then re-speculation rounds over the chunked head of whatever
// the pass deferred, until nothing is pending.
func (s *scan) speculateBatch(batch []graph.Edge) error {
	ordinal := int(s.stats.SpecBatches)
	s.stats.SpecBatches++
	s.emitPhase(PhaseInfo{
		Phase: PhaseBatchSpeculate,
		Batch: ordinal,
		Edges: len(batch),
		Kept:  len(s.kept),
	})
	if cap(s.results) < len(batch) {
		s.results = make([]specResult, len(batch))
	}
	results := s.results[:len(batch)]
	clear(results)
	s.pending = s.pending[:0]
	for i := range batch {
		s.pending = append(s.pending, i)
	}

	pending, err := s.specPass(batch, results, s.pending, len(batch), true)
	for err == nil && len(pending) > 1 {
		s.stats.SpecRounds++
		head := min(len(pending), respecChunkPerWorker*s.opts.Parallelism)
		if pending, err = s.specPass(batch, results, pending, head, false); err == nil {
			s.emitPhase(PhaseInfo{
				Phase:   PhaseRespecRound,
				Batch:   ordinal,
				Edges:   head,
				Kept:    len(s.kept),
				Pending: len(pending),
			})
		}
	}
	if err != nil {
		return err
	}
	if len(pending) == 1 {
		// A lone straggler: one (hinted) live re-query beats a worker
		// dispatch.
		s.stats.SpecRequeries++
		if err := s.decide(batch[pending[0]], results[pending[0]].witness); err != nil {
			return err
		}
	}
	s.emitPhase(PhaseInfo{
		Phase: PhaseBatchCommit,
		Batch: ordinal,
		Edges: len(batch),
		Kept:  len(s.kept),
	})
	return nil
}

// specPass queries the first head pending edges in parallel against the
// live spanner, then walks their answers in scan order with the commit
// rules, and returns the edges still unresolved: this pass's deferrals
// followed by the unqueried tail. first marks the batch's initial pass,
// whose walk also fires the per-edge Progress step.
func (s *scan) specPass(batch []graph.Edge, results []specResult, pending []int, head int, first bool) ([]int, error) {
	if err := s.query(batch, results, pending[:head], first); err != nil {
		return nil, err
	}
	hEdges := s.h.NumEdges()
	out := pending[:0]
	for _, i := range pending[:head] {
		e := batch[i]
		if first {
			if err := s.step(); err != nil {
				return nil, err
			}
		}
		r := results[i]
		if r.err != nil {
			return nil, fmt.Errorf("core: edge %d: %w", e.ID, r.err)
		}
		if !r.found {
			// Exact whatever was committed since, by the lemma.
			s.stats.SpecHits++
			continue
		}
		if len(out) == 0 {
			ok := s.h.NumEdges() == hEdges // H unchanged: the witness is exact
			if !ok {
				var err error
				if ok, err = s.live.ValidateWitness(e.U, e.V, s.opts.Stretch*e.Weight, r.witness); err != nil {
					return nil, fmt.Errorf("core: edge %d: %w", e.ID, err)
				}
			}
			if ok {
				s.stats.SpecHits++
				s.commit(e, r.witness)
				continue
			}
			// A witness refuted against the current H stays refuted against
			// every later H (the lemma again): it is useless as a hint.
			results[i].witness = nil
		}
		// Invalidated, or unresolvable until the deferred edges before it
		// are: this answer is spent, its witness rides along as a hint.
		s.stats.SpecWaste++
		out = append(out, i)
	}
	// In-place filter: out never overtakes the read position, and the
	// unqueried tail is copied forward behind it.
	return append(out, pending[head:]...), nil
}

// query answers the given batch positions on the worker pool while the scan
// goroutine waits. Workers claim positions through a shared cursor and each
// writes only its claimed result slots, so wg.Wait orders every write before
// the commit walk's reads. A panic inside a worker (the oracle, or the
// injected Chaos hook) is recovered into a *PanicError and fails the build
// instead of the process.
func (s *scan) query(batch []graph.Edge, results []specResult, idx []int, first bool) error {
	site := ChaosSiteRespec
	if first {
		site = ChaosSiteWorker
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[PanicError]
	)
	for _, o := range s.workers[:min(len(s.workers), len(idx))] {
		wg.Add(1)
		go func(o *fault.Oracle) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &PanicError{Site: site, Value: v, Stack: debug.Stack()})
				}
			}()
			s.chaos(site)
			for {
				j := int(next.Add(1)) - 1
				if j >= len(idx) {
					return
				}
				i := idx[j]
				e := batch[i]
				wit, found, err := o.FindFaultSetHinted(
					e.U, e.V, s.opts.Stretch*e.Weight, s.opts.Faults, results[i].witness)
				results[i] = specResult{witness: wit, found: found, err: err}
			}
		}(o)
	}
	wg.Wait()
	s.stats.SpecQueries += int64(len(idx))
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	return nil
}
