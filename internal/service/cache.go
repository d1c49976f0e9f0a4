package service

import (
	"container/list"
	"sync"
)

// resultCache is a bounded LRU of stored result elements (see
// encodeElement) keyed by content hash (experiments.CacheKey).
// Elements are immutable once stored — the determinism suite
// guarantees a key's output never changes, and nothing writes to a
// stored slice — so the cache hands out stored bytes directly; there
// is nothing a reader could corrupt. Eviction is strict LRU on Get/Add
// recency.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	evictions uint64
}

type cacheEntry struct {
	key  string
	elem []byte
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 1024
	}
	return &resultCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the stored element for key, marking it most recently
// used. Callers must not modify the returned bytes.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).elem, true
}

// add stores an element under key, evicting the least recently used
// entry when full. Re-adding an existing key refreshes its recency but
// keeps the first stored element: a content address has one value.
func (c *resultCache) add(key string, elem []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, elem: elem})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats returns the current entry count and lifetime eviction count.
func (c *resultCache) stats() (entries int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.evictions
}
