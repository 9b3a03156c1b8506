package service

import (
	"container/list"
	"sync"
)

// CacheKey identifies a build result: the input graph's content digest plus
// every parameter that changes the output. Seed is zeroed for deterministic
// algorithms so resubmissions hit regardless of the client's seed field.
type CacheKey struct {
	Digest    string
	Stretch   float64
	Faults    int
	Mode      string
	Algorithm string
	Seed      int64
}

// lruCache is a fixed-capacity least-recently-used map. The server keeps
// two: completed build results by CacheKey, and the spec memo (specmemo.go).
// Safe for concurrent use.
type lruCache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; element values are *lruEntry
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[K, V]{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[K]*list.Element, capacity),
	}
}

// Get returns the value cached under k, marking it most recently used.
func (c *lruCache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put inserts or refreshes k, evicting the least recently used entry when
// over capacity.
func (c *lruCache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
