package sssp

import (
	"math"
	"math/bits"
)

// queueEntry is one queued (vertex, tentative distance) pair. key holds the
// distance's IEEE-754 bits: for non-negative float64 values the unsigned
// order of the bits is the numeric order, so the queue never compares
// floats.
type queueEntry struct {
	key uint64
	v   int
}

// radixQueue is the monotone priority queue behind every search in this
// package: a radix heap over the bits of non-negative float64 distances.
// Dijkstra only ever inserts keys no smaller than the last extracted
// minimum, which is all a radix heap needs.
//
// Bucket 0 holds the entries whose key equals last, the most recently
// extracted minimum; bucket i >= 1 holds the entries whose key first
// differs from last at bit i-1. nonEmpty has bit i-1 set exactly when
// bucket i >= 1 is non-empty, so the next bucket is one TrailingZeros64
// away. Taking the minimum of bucket i as the new last moves each of that
// bucket's entries into a strictly lower bucket, so an entry moves at most
// 64 times before it is extracted; with unit weights every BFS layer lands
// in one bucket and moves once.
//
// Deletion is lazy: a decrease-key is a second push, and the extractors
// skip entries whose key no longer equals the vertex's current distance
// (settled vertices never change distance, so their leftover entries are
// skipped the same way). Buckets keep their capacity across reset, so a
// warmed solver's searches allocate nothing.
type radixQueue struct {
	last     uint64
	nonEmpty uint64
	buckets  [65][]queueEntry
}

// reset empties the queue in O(non-empty buckets), keeping every bucket's
// capacity.
func (q *radixQueue) reset() {
	q.buckets[0] = q.buckets[0][:0]
	for m := q.nonEmpty; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) + 1
		q.buckets[i] = q.buckets[i][:0]
	}
	q.nonEmpty = 0
	q.last = 0
}

// push queues v at distance d. d must be non-negative and no smaller than
// the key of the last entry the extractors removed, live or stale (a
// Dijkstra relaxation from the vertex just popped always is), and the
// caller's dist[v] must equal d for the entry to be live.
func (q *radixQueue) push(v int, d float64) {
	k := math.Float64bits(d)
	i := bits.Len64(k ^ q.last)
	q.buckets[i] = append(q.buckets[i], queueEntry{key: k, v: v})
	if i > 0 {
		q.nonEmpty |= 1 << (i - 1)
	}
}

// fill makes bucket 0 non-empty, redistributing the lowest non-empty
// bucket around its minimum if needed, and reports whether any entry is
// queued.
func (q *radixQueue) fill() bool {
	if len(q.buckets[0]) > 0 {
		return true
	}
	if q.nonEmpty == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.nonEmpty) + 1
	b := q.buckets[i]
	min := b[0].key
	for _, e := range b[1:] {
		if e.key < min {
			min = e.key
		}
	}
	q.last = min
	q.nonEmpty &^= 1 << (i - 1)
	for _, e := range b {
		j := bits.Len64(e.key ^ min) // < i: e agrees with min above bit i-1
		q.buckets[j] = append(q.buckets[j], e)
		if j > 0 {
			q.nonEmpty |= 1 << (j - 1)
		}
	}
	q.buckets[i] = b[:0]
	return true
}

// minLive discards stale entries at the front and returns the smallest live
// key, or +Inf when no live entry remains. The bidirectional search's stop
// test reads each frontier through it.
func (q *radixQueue) minLive(dist []float64) float64 {
	for q.fill() {
		b := q.buckets[0]
		d := math.Float64frombits(q.last)
		if dist[b[len(b)-1].v] == d {
			return d
		}
		q.buckets[0] = b[:len(b)-1]
	}
	return math.Inf(1)
}

// popLive removes and returns the live entry with the smallest key; ok is
// false when no live entry remains.
func (q *radixQueue) popLive(dist []float64) (v int, d float64, ok bool) {
	for q.fill() {
		b := q.buckets[0]
		e := b[len(b)-1]
		q.buckets[0] = b[:len(b)-1]
		d = math.Float64frombits(q.last)
		if dist[e.v] == d {
			return e.v, d, true
		}
	}
	return 0, 0, false
}
