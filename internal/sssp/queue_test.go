package sssp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// newDist returns a distance table of n unreached (+Inf) vertices: the
// queue's liveness test reads the caller's table, as the solver's does.
func newDist(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	return d
}

// queuePush records d as v's distance and queues it, the solver's relax step.
func queuePush(q *radixQueue, dist []float64, v int, d float64) {
	dist[v] = d
	q.push(v, d)
}

func TestQueueEmpty(t *testing.T) {
	var q radixQueue
	dist := newDist(4)
	if _, _, ok := q.popLive(dist); ok {
		t.Error("popLive on an empty queue reported an entry")
	}
	if m := q.minLive(dist); !math.IsInf(m, 1) {
		t.Errorf("minLive on an empty queue = %v, want +Inf", m)
	}
}

func TestQueuePushPopOrdered(t *testing.T) {
	var q radixQueue
	keys := []float64{3, 1, 4, 1.5, 0.5}
	dist := newDist(len(keys))
	for v, k := range keys {
		queuePush(&q, dist, v, k)
	}
	for _, want := range []int{4, 1, 3, 0, 2} {
		if m := q.minLive(dist); m != keys[want] {
			t.Fatalf("minLive = %v, want %v", m, keys[want])
		}
		v, d, ok := q.popLive(dist)
		if !ok || v != want || d != keys[want] {
			t.Fatalf("popLive = %d/%v/%v, want %d/%v", v, d, ok, want, keys[want])
		}
	}
	if _, _, ok := q.popLive(dist); ok {
		t.Error("queue not empty after popping everything")
	}
}

// TestQueueDecreaseKey: a decrease-key is a second push, and the first
// entry, now stale, is skipped when its turn comes.
func TestQueueDecreaseKey(t *testing.T) {
	var q radixQueue
	dist := newDist(3)
	queuePush(&q, dist, 0, 10)
	queuePush(&q, dist, 1, 20)
	queuePush(&q, dist, 2, 30)
	queuePush(&q, dist, 2, 5)
	for _, want := range []struct {
		v int
		d float64
	}{{2, 5}, {0, 10}, {1, 20}} {
		if v, d, ok := q.popLive(dist); !ok || v != want.v || d != want.d {
			t.Fatalf("popLive = %d/%v/%v, want %d/%v", v, d, ok, want.v, want.d)
		}
	}
	if _, _, ok := q.popLive(dist); ok {
		t.Fatal("the stale entry (2, 30) was returned")
	}
}

// TestQueueStaleEntryLifecycle: after a vertex is popped, a new push at a
// later distance makes it live again, and minLive skips stale fronts.
func TestQueueStaleEntryLifecycle(t *testing.T) {
	var q radixQueue
	dist := newDist(4)
	queuePush(&q, dist, 2, 1)
	queuePush(&q, dist, 3, 2)
	queuePush(&q, dist, 3, 1.5)
	if v, d, ok := q.popLive(dist); !ok || v != 2 || d != 1 {
		t.Fatalf("popLive = %d/%v/%v, want 2/1", v, d, ok)
	}
	queuePush(&q, dist, 2, 3)
	if m := q.minLive(dist); m != 1.5 {
		t.Fatalf("minLive = %v, want 1.5", m)
	}
	q.popLive(dist)
	if m := q.minLive(dist); m != 3 {
		t.Fatalf("minLive = %v, want 3 (the stale (3, 2) entry must be skipped)", m)
	}
	if v, _, ok := q.popLive(dist); !ok || v != 2 {
		t.Fatal("re-push after pop failed")
	}
}

func TestQueueReset(t *testing.T) {
	var q radixQueue
	dist := newDist(6)
	for v := 0; v < 6; v++ {
		queuePush(&q, dist, v, float64(10-v))
	}
	q.popLive(dist)
	q.reset()
	if _, _, ok := q.popLive(dist); ok {
		t.Fatal("entries survived reset")
	}
	// A reset queue accepts keys below the last extracted one.
	queuePush(&q, dist, 3, 1)
	if v, _, ok := q.popLive(dist); !ok || v != 3 {
		t.Error("queue unusable after reset")
	}
}

// TestQuickQueueSort runs the queue the way Dijkstra does — every push at
// or above the last popped key, with random decrease-keys — and checks the
// pops come out in order with each vertex's final key exactly once.
func TestQuickQueueSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		var q radixQueue
		dist := newDist(n)
		popped := make([]bool, n)
		var want, got []float64
		last := 0.0
		for op := 0; op < 4*n; op++ {
			if rng.Intn(3) == 0 {
				v, d, ok := q.popLive(dist)
				if !ok {
					// Draining stale entries may have raised the floor
					// past last; Dijkstra stops here, and so does this run.
					break
				}
				if popped[v] || d < last {
					return false
				}
				popped[v], last = true, d
				got = append(got, d)
				continue
			}
			v := rng.Intn(n)
			d := last + rng.Float64()*100
			if rng.Intn(4) == 0 {
				d = last // exact ties with the last popped key
			}
			if !popped[v] && d < dist[v] {
				queuePush(&q, dist, v, d)
			}
		}
		for {
			v, d, ok := q.popLive(dist)
			if !ok {
				break
			}
			if popped[v] || d < last {
				return false
			}
			popped[v], last = true, d
			got = append(got, d)
		}
		for v := range dist {
			if !math.IsInf(dist[v], 1) {
				want = append(want, dist[v])
			}
		}
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
