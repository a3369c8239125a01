// Package servercache is the serving layer's cache: a sharded LRU with
// singleflight collapse, so a thundering herd of identical expensive
// computations (kernel-table builds, full-space enumerations) runs each
// one exactly once while every waiter shares the result. The daemon
// keeps two instances: one of marshaled response bodies keyed on
// canonicalized requests, and one of compiled kernel tables keyed on the
// cluster spec alone.
//
// Sharding bounds lock contention — a key's shard is fixed by an FNV-1a
// hash, so two concurrent requests serialize only when they collide on a
// shard — and each shard runs its own LRU list, so eviction decisions
// are shard-local and O(1). The shard count follows from the capacity
// (see New): a large cache spreads over 16 shards, a small one is a
// single exact LRU. Large byte values are held deflated (packed.go).
package servercache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxShards bounds the shard count. It is a power of two so shard
	// selection is a mask; 16 shards keep per-shard contention
	// negligible at the daemon's concurrency caps.
	maxShards = 16
	// entriesPerShard is how much capacity earns one more shard: a cache
	// below 2×entriesPerShard entries is one exact LRU.
	entriesPerShard = 256
)

// shard is one LRU: a mutex, the lookup map and the recency list
// (front = most recent).
type shard struct {
	mu  sync.Mutex
	cap int
	// maxBytes bounds the shard's summed entry sizes (0 = unlimited).
	maxBytes int64
	ll       *list.List
	m        map[string]*list.Element
	// bytes sums the sizes of the shard's entries (see sizeOf).
	bytes int64
}

// lruEntry is a recency-list payload. val is the held form (see
// pack); storedAt supports DoFresh's staleness checks; size is the
// entry's sizeOf, fixed at insert.
type lruEntry struct {
	key      string
	val      any
	size     int64
	storedAt time.Time
}

// call is one in-flight singleflight computation.
type call struct {
	wg    sync.WaitGroup
	val   any
	stale bool
	err   error
}

// Stats is a point-in-time view of the cache's effectiveness.
type Stats struct {
	// Hits and Misses count lookup outcomes (Do's fast path counts too).
	Hits, Misses uint64
	// Evictions counts LRU entries dropped to capacity pressure.
	Evictions uint64
	// Collapsed counts Do callers that waited on another caller's
	// computation instead of running their own.
	Collapsed uint64
	// StaleServes counts DoFresh computations that failed and fell back
	// to an expired entry (degraded serving).
	StaleServes uint64
	// Entries is the current number of cached values.
	Entries int
	// Bytes is the summed size of cached values (see sizeOf): response
	// bodies count their raw length, deflated or not, and compiled
	// tables their SizeBytes.
	Bytes int64
}

// HitRatio returns Hits / (Hits + Misses), 0 when nothing was asked.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded LRU with singleflight. The zero value is not
// usable; construct with New.
type Cache struct {
	shards   []shard
	mask     uint32
	capacity int
	// maxBytes is the configured byte limit (0 = unlimited), reported by
	// MaxBytes; each shard enforces its even share of it.
	maxBytes atomic.Int64

	// now is the staleness clock, injectable in tests.
	now func() time.Time

	flightMu sync.Mutex
	flight   map[string]*call

	hits, misses, evictions, collapsed, staleServes atomic.Uint64
}

// shardsFor is the shard count of a cache holding capacity entries: one
// shard per entriesPerShard entries, rounded down to a power of two and
// clamped to [1, maxShards].
func shardsFor(capacity int) int {
	n := 1
	for n < maxShards && 2*n*entriesPerShard <= capacity {
		n *= 2
	}
	return n
}

// New returns a cache holding at most capacity entries in total
// (capacity < 1 holds one). The capacity is split evenly across the
// shards, rounding each shard's share up.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := shardsFor(capacity)
	c := &Cache{
		shards:   make([]shard, n),
		mask:     uint32(n - 1),
		capacity: capacity,
		now:      time.Now,
		flight:   make(map[string]*call),
	}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = shard{cap: per, ll: list.New(), m: make(map[string]*list.Element)}
	}
	return c
}

// sizeOf is the byte accounting applied to cached values: the length of
// a []byte, SizeBytes of a value that reports it, zero for anything
// else.
func sizeOf(val any) int64 {
	switch v := val.(type) {
	case []byte:
		return int64(len(v))
	case interface{ SizeBytes() int }:
		return int64(v.SizeBytes())
	}
	return 0
}

// fnv1a hashes the key for shard selection.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[fnv1a(key)&c.mask]
}

// lookup returns the cached value for key and marks it most recently
// used. An entry at least maxAge old counts as absent (maxAge <= 0
// disables the check); count selects whether the outcome feeds the
// hit/miss counters.
func (c *Cache) lookup(key string, maxAge time.Duration, count bool) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*lruEntry)
		if maxAge <= 0 || c.now().Sub(e.storedAt) < maxAge {
			s.ll.MoveToFront(el)
			val := e.val
			s.mu.Unlock()
			if count {
				c.hits.Add(1)
			}
			return unpack(val), true
		}
	}
	s.mu.Unlock()
	if count {
		c.misses.Add(1)
	}
	return nil, false
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) { return c.lookup(key, 0, true) }

// Add stores key → val and evicts the shard's least recently used
// entries until its entry cap and byte limit hold again. Re-adding an
// existing key refreshes its value, size and recency.
func (c *Cache) Add(key string, val any) {
	s := c.shardFor(key)
	size := sizeOf(val)
	val = pack(val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*lruEntry)
		s.bytes += size - e.size
		e.val, e.size, e.storedAt = val, size, c.now()
		s.ll.MoveToFront(el)
	} else {
		s.m[key] = s.ll.PushFront(&lruEntry{key: key, val: val, size: size, storedAt: c.now()})
		s.bytes += size
	}
	c.evictLocked(s)
}

// evictLocked drops the shard's least-recently-used entries until both
// the entry cap and the byte limit hold. The newest entry survives even
// when it alone exceeds the limit: evicting it would just force the next
// request to recompute it, the exact cost the cache exists to amortize.
func (c *Cache) evictLocked(s *shard) {
	for s.ll.Len() > 1 && (s.ll.Len() > s.cap || (s.maxBytes > 0 && s.bytes > s.maxBytes)) {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(s.m, e.key)
		s.bytes -= e.size
		c.evictions.Add(1)
	}
}

// SetMaxBytes bounds the summed size of cached values across the whole
// cache (0 or negative removes the bound). The bound is split evenly
// across shards, so a pathological key distribution can evict below the
// global figure — the limit is a ceiling, not a fill target. Lowering it
// evicts immediately, coldest first per shard.
func (c *Cache) SetMaxBytes(n int64) {
	if n < 0 {
		n = 0
	}
	c.maxBytes.Store(n)
	per := (n + int64(len(c.shards)) - 1) / int64(len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.maxBytes = per
		c.evictLocked(s)
		s.mu.Unlock()
	}
}

// MaxBytes returns the byte limit SetMaxBytes set (0 = unlimited).
func (c *Cache) MaxBytes() int64 { return c.maxBytes.Load() }

// Capacity returns the entry cap New was given.
func (c *Cache) Capacity() int { return c.capacity }

// Entry is one cached (key, value) pair as exported by Hottest; Val is
// the raw value, inflated if the cache held it deflated.
type Entry struct {
	Key string
	Val any
}

// Hottest returns up to limit entries, hottest first (limit <= 0
// returns everything). Recency is shard-local, so with several shards
// the global order is approximated by interleaving their lists
// front-to-back: the i-th round takes each shard's i-th most recent
// entry. A single-shard cache reports its exact recency order. Hottest
// does not touch recency or the hit/miss counters: snapshotting the
// cache must not reorder it. Deflated values are inflated for the
// returned entries only, after the shard locks are released.
func (c *Cache) Hottest(limit int) []Entry {
	perShard := make([][]Entry, len(c.shards))
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		list := make([]Entry, 0, s.ll.Len())
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*lruEntry)
			list = append(list, Entry{Key: e.key, Val: e.val})
		}
		s.mu.Unlock()
		perShard[i] = list
		total += len(list)
	}
	if limit <= 0 || limit > total {
		limit = total
	}
	out := make([]Entry, 0, limit)
	for round := 0; len(out) < limit; round++ {
		for _, list := range perShard {
			if round < len(list) {
				out = append(out, Entry{Key: list[round].Key, Val: unpack(list[round].Val)})
				if len(out) == limit {
					break
				}
			}
		}
	}
	return out
}

// Do returns the cached value for key, computing it with fn on a miss.
// Concurrent Do calls for the same key collapse: one caller runs fn, the
// rest block and share its result. Successful results are cached; errors
// are returned to every collapsed caller and nothing is stored, so the
// next Do retries. cached reports whether the value came from the cache
// without running or waiting on fn.
func (c *Cache) Do(key string, fn func() (any, error)) (val any, cached bool, err error) {
	val, cached, _, err = c.DoFresh(key, 0, fn)
	return val, cached, err
}

// DoFresh is Do with a freshness bound and graceful degradation: a
// cached value at least maxAge old is recomputed (maxAge <= 0: values
// never expire, exactly Do), and when the recompute fails an expired
// entry is served anyway. cached reports a fresh hit (no compute ran or
// was waited on, as in Do); the stale flag and error distinguish the
// remaining cases:
//
//   - fresh hit or successful compute: (val, _, false, nil)
//   - compute failed, stale entry available: (staleVal, false, true, err)
//     — the caller serves the stale value marked degraded and can
//     inspect err
//   - compute failed, nothing cached: (nil, false, false, err)
//
// Errors never overwrite the cached entry, so a failing dependency
// cannot poison the cache. Concurrent callers for the same key collapse
// onto one computation and share the same outcome, including the stale
// flag and error.
func (c *Cache) DoFresh(key string, maxAge time.Duration, fn func() (any, error)) (val any, cached, stale bool, err error) {
	if v, ok := c.lookup(key, maxAge, true); ok {
		return v, true, false, nil
	}
	c.flightMu.Lock()
	if cl, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		c.collapsed.Add(1)
		cl.wg.Wait()
		return cl.val, false, cl.stale, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	c.flight[key] = cl
	c.flightMu.Unlock()

	// Re-check under flight ownership: another caller may have completed
	// and cached between our miss and claiming the flight slot.
	if v, ok := c.lookup(key, maxAge, true); ok {
		cl.val = v
	} else if v, ferr := fn(); ferr == nil {
		cl.val = v
		c.Add(key, v)
	} else {
		cl.err = ferr
		// Without a freshness bound nothing expires, so there is no
		// stale entry to fall back to.
		if maxAge > 0 {
			if sv, ok := c.lookup(key, 0, false); ok {
				cl.val, cl.stale = sv, true
				c.staleServes.Add(1)
			}
		}
	}

	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.stale, cl.err
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// DeleteFunc removes every entry whose key satisfies pred and returns
// the number removed. It walks all shards under their locks, so a
// concurrent Add racing the sweep may land after it — callers that use
// DeleteFunc for invalidation must also stop producing the doomed keys
// (the server does: invalidated keys carry a profile version that no
// new request resolves to).
func (c *Cache) DeleteFunc(pred func(key string) bool) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.m {
			if !pred(key) {
				continue
			}
			s.ll.Remove(el)
			delete(s.m, key)
			s.bytes -= el.Value.(*lruEntry).size
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// Reset empties the cache (statistics are kept; they describe the
// process, not the current contents).
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.m = make(map[string]*list.Element)
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Bytes returns the summed size of cached values.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Collapsed:   c.collapsed.Load(),
		StaleServes: c.staleServes.Load(),
		Entries:     c.Len(),
		Bytes:       c.Bytes(),
	}
}
