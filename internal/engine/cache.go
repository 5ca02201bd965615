package engine

import (
	"container/list"
	"sync"
)

// cacheKey identifies a compiled plan. The generation component gives
// free invalidation: updating a document bumps its generation, so stale
// plans simply stop being requested and age out of the LRU.
type cacheKey struct {
	doc   string
	gen   uint64
	fp    uint32 // compile.Options fingerprint (plan-shaping flags only)
	query string
}

type cacheEntry struct {
	key cacheKey
	p   *Plan
}

// planCache is a tenant-partitioned LRU over compiled plans. Each
// tenant key owns an independent LRU with the full configured capacity,
// so one tenant's compile churn evicts only that tenant's plans — a
// noisy neighbor can thrash its own partition to a 0% hit rate without
// moving another tenant's hit rate at all. Cached plans are immutable
// and shared by concurrent executions; partitions are created on first
// use and never removed (bounded by the set of distinct tenant keys the
// operator admits, the same trust boundary as Config.TenantQuota).
type planCache struct {
	mu    sync.Mutex
	max   int                  // capacity per tenant partition
	parts map[string]*lruCache // tenant → partition; guarded by mu
}

// lruCache is one tenant partition: a plain LRU list + index. Guarded
// by the owning planCache's mutex.
type lruCache struct {
	ll   *list.List                 // front = most recently used
	byKy map[cacheKey]*list.Element // same entries, keyed
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, parts: map[string]*lruCache{}}
}

func (c *planCache) enabled() bool { return c.max > 0 }

func (c *planCache) get(tenant string, k cacheKey) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	part, ok := c.parts[tenant]
	if !ok {
		return nil, false
	}
	el, ok := part.byKy[k]
	if !ok {
		return nil, false
	}
	part.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).p, true
}

func (c *planCache) put(tenant string, k cacheKey, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	part, ok := c.parts[tenant]
	if !ok {
		part = &lruCache{ll: list.New(), byKy: map[cacheKey]*list.Element{}}
		c.parts[tenant] = part
	}
	if el, ok := part.byKy[k]; ok {
		el.Value.(*cacheEntry).p = p
		part.ll.MoveToFront(el)
		return
	}
	part.byKy[k] = part.ll.PushFront(&cacheEntry{key: k, p: p})
	for part.ll.Len() > c.max {
		oldest := part.ll.Back()
		part.ll.Remove(oldest)
		delete(part.byKy, oldest.Value.(*cacheEntry).key)
	}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, part := range c.parts {
		n += part.ll.Len()
	}
	return n
}
