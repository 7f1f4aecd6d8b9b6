package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/mining"
)

// lruCache is the query-result cache: a classic map+list LRU keyed on
// (view version, normalized query). Because the view version is part of
// the key, a published version bump invalidates every prior entry by
// construction — a stale result cannot be served — and dead-version
// entries age out through normal LRU eviction. A capacity < 0 disables
// caching (every lookup is a miss and nothing is stored).
type lruCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheKey identifies one result: the rendered normalized query and the
// version of the view it was computed from. Comparable, so a lookup
// hashes the two fields instead of formatting them into one string.
type cacheKey struct {
	version uint64
	query   string
}

// cacheEntry is one stored result.
type cacheEntry struct {
	key   cacheKey
	rules []mining.Rule
}

// newLRUCache builds a cache holding up to capacity entries.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// get looks up the result for k, promoting a hit to most-recently-used.
func (c *lruCache) get(k cacheKey) ([]mining.Rule, bool) {
	if c.cap < 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).rules, true
}

// put stores the result for k, evicting the least recently used entry
// when the cache is full.
func (c *lruCache) put(k cacheKey, rules []mining.Rule) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).rules = rules
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, rules: rules})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// counters returns the hit and miss totals.
func (c *lruCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
