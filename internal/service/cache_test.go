package service

import "testing"

func key(d string) CacheKey { return CacheKey{Digest: d, Stretch: 3, Faults: 1} }

func TestLRUGetPut(t *testing.T) {
	c := newLRU[CacheKey, *buildResult](2)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("empty cache returned a hit")
	}
	va, vb := &buildResult{}, &buildResult{}
	c.Put(key("a"), va)
	c.Put(key("b"), vb)
	if got, ok := c.Get(key("a")); !ok || got != va {
		t.Fatal("lost entry a")
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[CacheKey, *buildResult](2)
	c.Put(key("a"), &buildResult{})
	c.Put(key("b"), &buildResult{})
	c.Get(key("a")) // refresh a; b is now oldest
	c.Put(key("c"), &buildResult{})
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	for _, d := range []string{"a", "c"} {
		if _, ok := c.Get(key(d)); !ok {
			t.Fatalf("%s should have survived", d)
		}
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRU[CacheKey, *buildResult](2)
	v1, v2 := &buildResult{}, &buildResult{}
	c.Put(key("a"), v1)
	c.Put(key("b"), &buildResult{})
	c.Put(key("a"), v2) // refresh, not insert
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if got, _ := c.Get(key("a")); got != v2 {
		t.Fatal("Put did not replace the value")
	}
	c.Put(key("c"), &buildResult{}) // b is oldest now
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRU[CacheKey, *buildResult](0)
	c.Put(key("a"), &buildResult{})
	c.Put(key("b"), &buildResult{})
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
}
