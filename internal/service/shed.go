package service

import (
	"sort"
	"sync"
	"time"
)

// shedWindow is how many recent per-class queue waits the shedder keeps; the
// p90 over this ring is the admission signal.
const shedWindow = 64

// shedMinSamples is the fewest observed waits before the ring's p90 is
// trusted; below it only the live head-of-line age (which needs no history)
// can shed.
const shedMinSamples = 8

// waitShedder turns observed queue waits into earlier backpressure: when a
// class's recent p90 wait (or its current head-of-line age) exceeds the
// configured budget, new submissions to that class are refused with 429
// before they join a queue they would only age in. A zero budget disables
// shedding. The per-class queue caps still apply; the shedder fires earlier,
// on latency rather than depth.
type waitShedder struct {
	budget time.Duration

	mu    sync.Mutex
	waits [numClasses][]time.Duration // ring, newest overwrites oldest
	next  [numClasses]int
}

func newWaitShedder(budget time.Duration) *waitShedder {
	return &waitShedder{budget: budget}
}

// observe records one dequeued job's queue wait for its class. Waits are
// recorded even with budget shedding disabled: the deadline-feasibility
// check at submission reads the same p90.
func (ws *waitShedder) observe(c class, wait time.Duration) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if len(ws.waits[c]) < shedWindow {
		ws.waits[c] = append(ws.waits[c], wait)
		return
	}
	ws.waits[c][ws.next[c]] = wait
	ws.next[c] = (ws.next[c] + 1) % shedWindow
}

// p90 returns the class's 90th-percentile recent wait and whether enough
// samples back it.
func (ws *waitShedder) p90(c class) (time.Duration, bool) {
	ws.mu.Lock()
	n := len(ws.waits[c])
	buf := append([]time.Duration(nil), ws.waits[c]...)
	ws.mu.Unlock()
	if n < shedMinSamples {
		return 0, false
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(n*9)/10-1], true
}

// shouldShed reports whether a new submission to class c should be refused,
// given the class's current head-of-line age. Either signal suffices: a p90
// over budget says the recent past was too slow, a head older than the
// budget says the present already is.
func (ws *waitShedder) shouldShed(c class, headAge time.Duration) bool {
	if ws.budget <= 0 {
		return false
	}
	if headAge > ws.budget {
		return true
	}
	if p, ok := ws.p90(c); ok && p > ws.budget {
		return true
	}
	return false
}
