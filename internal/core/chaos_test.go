package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/ftspanner/ftspanner/internal/fault"
)

// The chaos tests use all-equal-weight instances: one giant batch, so every
// build exercises the speculative worker pool (and usually re-speculation
// rounds too).

// TestChaosPanicInWorkerContained injects a single panic into one
// speculation worker: the build must fail with a *PanicError naming the
// worker site and carrying its stack — never crash the process, and never
// commit the batch's unwritten result slots as silent drops.
func TestChaosPanicInWorkerContained(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomInstance(rng, 60, 240, weightsAllEqual)
	var fired atomic.Bool
	_, err := Greedy(g, Options{
		Stretch:     3,
		Faults:      2,
		Mode:        fault.Vertices,
		Parallelism: 4,
		Chaos: func(site string) {
			if site == ChaosSiteWorker && fired.CompareAndSwap(false, true) {
				panic("injected worker panic")
			}
		},
	})
	if !fired.Load() {
		t.Fatal("chaos hook never fired on the worker site")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PanicError", err)
	}
	if pe.Site != ChaosSiteWorker {
		t.Errorf("panic site %q, want %q", pe.Site, ChaosSiteWorker)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}

// TestChaosAllWorkersPanic breaks every worker: no result slot is ever
// written, and the build must fail rather than commit the unwritten
// zero-value answers as silent drops.
func TestChaosAllWorkersPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomInstance(rng, 60, 240, weightsAllEqual)
	_, err := Greedy(g, Options{
		Stretch:     3,
		Faults:      2,
		Mode:        fault.Vertices,
		Parallelism: 4,
		Chaos: func(site string) {
			if site == ChaosSiteWorker {
				panic("injected: all workers")
			}
		},
	})
	if err == nil {
		t.Fatal("Greedy succeeded with every speculation worker panicking")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("unexpected containment error: %v", err)
	}
}

// TestChaosPanicInOracleContained detonates inside an oracle query on a
// speculation worker; the worker-recovery path must contain it like any
// other worker panic.
func TestChaosPanicInOracleContained(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomInstance(rng, 60, 240, weightsAllEqual)
	var fired atomic.Bool
	_, err := Greedy(g, Options{
		Stretch:     3,
		Faults:      2,
		Mode:        fault.Vertices,
		Parallelism: 4,
		Chaos: func(site string) {
			if site == ChaosSiteOracle && fired.CompareAndSwap(false, true) {
				panic("injected oracle panic")
			}
		},
	})
	// The panic fires inside FindFaultSet. If a speculation worker ran the
	// query, containment yields an error; if the live (sequential-path)
	// oracle ran it first, the panic escapes core by design and the service
	// layer contains it — so the graph is all-equal-weight (one giant
	// speculative batch, no inline query before the first dispatch).
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("unexpected containment error: %v", err)
	}
}

// TestChaosRespecPanicContained panics in a re-speculation round goroutine.
// Forcing rounds: equal weights plus enough faults that many speculative
// "found" answers invalidate and re-enter rounds.
func TestChaosRespecPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := randomInstance(rng, 60, 240, weightsAllEqual)
	var sawRound atomic.Bool
	_, err := Greedy(g, Options{
		Stretch:     3,
		Faults:      2,
		Mode:        fault.Vertices,
		Parallelism: 4,
		Chaos: func(site string) {
			if site == ChaosSiteRespec {
				sawRound.Store(true)
				panic("injected respec panic")
			}
		},
	})
	if !sawRound.Load() {
		t.Skip("instance produced no re-speculation round; nothing to contain")
	}
	if err == nil {
		t.Fatal("Greedy succeeded despite an injected re-speculation panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("unexpected containment error: %v", err)
	}
	if pe.Site != ChaosSiteRespec {
		t.Errorf("panic site %q, want %q", pe.Site, ChaosSiteRespec)
	}
}

// TestChaosNilHookIsFree pins that a nil Chaos hook changes nothing: same
// kept set as a chaos-free build.
func TestChaosNilHookIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randomInstance(rng, 40, 120, weightsQuantized)
	base, err := Greedy(g, Options{Stretch: 3, Faults: 1, Mode: fault.Vertices, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	withHook, err := Greedy(g, Options{
		Stretch: 3, Faults: 1, Mode: fault.Vertices, Parallelism: 3,
		Chaos: func(string) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Spanner.Digest() != withHook.Spanner.Digest() {
		t.Errorf("benign chaos hook changed the result: %s vs %s",
			base.Spanner.Digest(), withHook.Spanner.Digest())
	}
}
