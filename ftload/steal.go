package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The measured window is cut into ticks, and each tick's host CPU steal
// (time the hypervisor withheld a runnable vCPU, from /proc/stat) is
// recorded. Steal comes from other tenants of the host, not from the
// program: a tick with much of it measures the host. The window runs until
// it holds `seconds` of ticks with at most maxTickSteal, or for windowCap
// times `seconds` at most. The end-to-end latencies and throughput then
// count only requests that started in the cleanest ticks that add up to
// `seconds`. Every request still counts toward attempted, failed and the
// correctness checks.
const (
	tickLen      = 500 * time.Millisecond
	maxTickSteal = 0.02
	windowCap    = 4.0 / 3
)

// tick is one slice of the window and its steal share.
type tick struct {
	start time.Time
	steal float64 // -1 when /proc/stat is unreadable (counts as clean)
	rss   float64 // the process's resident set at the tick's end, MB
	kept  bool    // among the cleanest ticks (set by gate)
}

func (t tick) clean() bool { return t.steal <= maxTickSteal }

// stealMeter records ticks from its start until the window has enough
// clean time or reaches its cap; done is closed then.
type stealMeter struct {
	need time.Duration
	done chan struct{}

	mu    sync.Mutex
	ticks []tick
}

// cpuTimes returns the aggregate steal and total jiffies of /proc/stat's
// "cpu" line.
func cpuTimes() (steal, total int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// startStealMeter starts metering a window that needs `need` clean time.
// With gate false it runs exactly `need` and records no ticks.
func startStealMeter(need time.Duration, gate bool) *stealMeter {
	m := &stealMeter{need: need, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		if !gate {
			time.Sleep(need)
			return
		}
		limit := time.Now().Add(time.Duration(float64(need) * windowCap))
		var clean time.Duration
		st0, tot0, ok := cpuTimes()
		for clean < need && time.Now().Before(limit) {
			t := tick{start: time.Now(), steal: -1}
			time.Sleep(tickLen)
			if st, tot, ok2 := cpuTimes(); ok && ok2 && tot > tot0 {
				t.steal = float64(st-st0) / float64(tot-tot0)
				st0, tot0 = st, tot
			}
			if t.clean() {
				clean += tickLen
			}
			t.rss = rssMB("VmRSS:")
			m.mu.Lock()
			m.ticks = append(m.ticks, t)
			m.mu.Unlock()
		}
	}()
	return m
}

// rss returns the median and the largest resident set sampled at the
// window's kept ticks (the process's VmRSS, or its VmHWM when the window
// sampled none). Call it after gate.
func (m *stealMeter) rss() (med, peak float64) {
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	var xs []float64
	for _, t := range m.ticks {
		if t.kept && t.rss > 0 {
			xs = append(xs, t.rss)
			peak = max(peak, t.rss)
		}
	}
	if len(xs) == 0 {
		hwm := rssMB("VmHWM:")
		return hwm, hwm
	}
	return median(xs), peak
}

// kept returns how many ticks gate kept.
func (m *stealMeter) kept() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.ticks {
		if t.kept {
			n++
		}
	}
	return n
}

// rssMB reads one resident-set field of /proc/self/status in MB (0 when
// unreadable).
func rssMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// running reports whether the window is still open.
func (m *stealMeter) running() bool {
	select {
	case <-m.done:
		return false
	default:
		return true
	}
}

// gate keeps the cleanest ticks that add up to the time the window asked
// for, marks the ops that started in any other tick as noisy, and returns
// the measured time, the window's mean steal and the highest steal among
// the kept ticks.
func (m *stealMeter) gate(ops []op) (measured time.Duration, mean, worstKept float64) {
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	ticks := m.ticks
	if len(ticks) == 0 {
		return m.need, 0, 0
	}
	order := make([]int, len(ticks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ticks[order[a]].steal < ticks[order[b]].steal })
	k := min(len(ticks), int(m.need/tickLen))
	for _, i := range order[:k] {
		ticks[i].kept = true
		worstKept = max(worstKept, ticks[i].steal)
	}
	for _, t := range ticks {
		mean += max(t.steal, 0)
	}
	for j := range ops {
		o := &ops[j]
		i := sort.Search(len(ticks), func(i int) bool { return ticks[i].start.After(o.start) }) - 1
		o.noisy = i >= 0 && !ticks[i].kept
	}
	return time.Duration(k) * tickLen, mean / float64(len(ticks)), worstKept
}
