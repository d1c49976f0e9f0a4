package service

import (
	"fmt"
	"sync"
	"testing"

	"montblanc/internal/xrand"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.add("a", []byte("a"))
	c.add("b", []byte("b"))
	// Touch "a" so "b" is the eviction candidate.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.add("c", []byte("c"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite being recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing right after add")
	}
	entries, evictions := c.stats()
	if entries != 2 || evictions != 1 {
		t.Errorf("stats = (%d entries, %d evictions), want (2, 1)", entries, evictions)
	}
}

// A content address has one value: re-adding a key must keep the first
// stored result, not overwrite it.
func TestResultCacheFirstValueWins(t *testing.T) {
	c := newResultCache(4)
	c.add("k", []byte("first"))
	c.add("k", []byte("second"))
	res, ok := c.get("k")
	if !ok || string(res) != "first" {
		t.Errorf("got %q, want the first stored value", res)
	}
	if entries, _ := c.stats(); entries != 1 {
		t.Errorf("duplicate add grew the cache to %d entries", entries)
	}
}

func TestResultCacheBoundHolds(t *testing.T) {
	c := newResultCache(8)
	for i := 0; i < 100; i++ {
		c.add(fmt.Sprintf("k%d", i), nil)
	}
	entries, evictions := c.stats()
	if entries != 8 {
		t.Errorf("cache holds %d entries, bound is 8", entries)
	}
	if evictions != 92 {
		t.Errorf("evictions = %d, want 92", evictions)
	}
}

// The capacity-1 degenerate case of first-value-wins: a re-add of the
// sole resident key must refresh recency without evicting it or
// replacing its value — the regression would be treating a duplicate
// add as insert-then-evict, which at capacity 1 evicts the key itself.
func TestResultCacheFirstValueWinsAtCapacityOne(t *testing.T) {
	c := newResultCache(1)
	c.add("k", []byte("first"))
	c.add("k", []byte("second"))
	res, ok := c.get("k")
	if !ok {
		t.Fatal("re-add at capacity 1 evicted the key itself")
	}
	if string(res) != "first" {
		t.Errorf("got %q, want the first stored value", res)
	}
	entries, evictions := c.stats()
	if entries != 1 || evictions != 0 {
		t.Errorf("stats = (%d entries, %d evictions), want (1, 0)", entries, evictions)
	}
	// A genuinely new key does evict at capacity 1.
	c.add("j", []byte("j"))
	if _, ok := c.get("k"); ok {
		t.Error("k survived insertion of j at capacity 1")
	}
	if entries, evictions = c.stats(); entries != 1 || evictions != 1 {
		t.Errorf("stats after eviction = (%d, %d), want (1, 1)", entries, evictions)
	}
}

// modelLRU is an obviously-correct reference: an ordered slice, front =
// most recently used, same semantics as resultCache (get refreshes, add
// of an existing key refreshes but keeps the first value).
type modelLRU struct {
	max       int
	order     []string // front first
	values    map[string]string
	evictions uint64
}

func (m *modelLRU) touch(key string) {
	for i, k := range m.order {
		if k == key {
			m.order = append([]string{key}, append(m.order[:i:i], m.order[i+1:]...)...)
			return
		}
	}
}

func (m *modelLRU) get(key string) (string, bool) {
	v, ok := m.values[key]
	if ok {
		m.touch(key)
	}
	return v, ok
}

func (m *modelLRU) add(key, val string) {
	if _, ok := m.values[key]; ok {
		m.touch(key)
		return
	}
	m.order = append([]string{key}, m.order...)
	m.values[key] = val
	for len(m.order) > m.max {
		last := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.values, last)
		m.evictions++
	}
}

// TestResultCacheMatchesModel drives a long seeded op sequence against
// the cache and the reference in lockstep: every hit/miss, the final
// entry count and the exact eviction count must agree.
func TestResultCacheMatchesModel(t *testing.T) {
	r := xrand.New(99)
	c := newResultCache(7)
	m := &modelLRU{max: 7, values: map[string]string{}}
	for op := 0; op < 10_000; op++ {
		key := fmt.Sprintf("k%d", r.Intn(32))
		if r.Intn(2) == 0 {
			val := fmt.Sprintf("v%d", op)
			c.add(key, []byte(val))
			m.add(key, val)
			continue
		}
		res, ok := c.get(key)
		wantVal, wantOK := m.get(key)
		if ok != wantOK {
			t.Fatalf("op %d: get(%s) = %v, model says %v", op, key, ok, wantOK)
		}
		if ok && string(res) != wantVal {
			t.Fatalf("op %d: get(%s) = %q, model says %q", op, key, res, wantVal)
		}
	}
	entries, evictions := c.stats()
	if entries != len(m.values) {
		t.Errorf("entries = %d, model has %d", entries, len(m.values))
	}
	if evictions != m.evictions {
		t.Errorf("evictions = %d, model counted %d", evictions, m.evictions)
	}
}

// TestResultCacheConcurrentStorm hammers the cache from many
// goroutines under -race: the LRU bound must hold at every observation
// point, and afterwards the books must balance — every key ever
// inserted is either resident or was evicted exactly once.
func TestResultCacheConcurrentStorm(t *testing.T) {
	const (
		workers  = 8
		opsEach  = 4000
		keySpace = 64
		capacity = 8
	)
	c := newResultCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for op := 0; op < opsEach; op++ {
				key := fmt.Sprintf("k%d", r.Intn(keySpace))
				switch r.Intn(3) {
				case 0:
					c.add(key, []byte(key))
				case 1:
					c.get(key)
				default:
					if entries, _ := c.stats(); entries > capacity {
						t.Errorf("bound exceeded mid-storm: %d > %d", entries, capacity)
						return
					}
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	entries, _ := c.stats()
	if entries > capacity {
		t.Errorf("bound exceeded after storm: %d > %d", entries, capacity)
	}
	// Deterministic epilogue: from the storm's end state, inserting
	// keySpace fresh keys must leave exactly `capacity` resident and
	// grow the eviction counter by exactly the overflow — the counter
	// tracks real evictions, not a drifted shadow.
	residentBefore, before := c.stats()
	for i := 0; i < keySpace; i++ {
		c.add(fmt.Sprintf("fresh%d", i), nil)
	}
	entries, after := c.stats()
	if entries != capacity {
		t.Errorf("entries = %d after refill, want %d", entries, capacity)
	}
	wantNew := uint64(residentBefore + keySpace - capacity)
	if after-before != wantNew {
		t.Errorf("refill evicted %d entries, want %d (resident %d + %d fresh - capacity %d)",
			after-before, wantNew, residentBefore, keySpace, capacity)
	}
}
