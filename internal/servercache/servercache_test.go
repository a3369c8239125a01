package servercache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetAddRoundTrip(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	c.Add("k", 42)
	v, ok := c.Get("k")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get(k) = %v, %v; want 42, true", v, ok)
	}
	c.Add("k", 43) // refresh
	if v, _ := c.Get("k"); v.(int) != 43 {
		t.Fatalf("refreshed value = %v, want 43", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss", st)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Errorf("hit ratio = %v, want 2/3", r)
	}
}

// sized is a test value that reports its own size, as compiled kernel
// tables do.
type sized int

func (s sized) SizeBytes() int { return int(s) }

func TestShardCountFollowsCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{-1, 1}, {1, 1}, {64, 1}, {511, 1}, {512, 2}, {1000, 2},
		{2048, 8}, {4096, 16}, {1 << 20, 16},
	} {
		if got := len(New(tc.capacity).shards); got != tc.shards {
			t.Errorf("New(%d) has %d shards, want %d", tc.capacity, got, tc.shards)
		}
	}
}

// fullCapacity is the smallest capacity that spreads over every shard.
const fullCapacity = maxShards * entriesPerShard

func TestLRUEvictionPerShard(t *testing.T) {
	c := New(fullCapacity)
	if len(c.shards) != maxShards {
		t.Fatalf("New(%d) has %d shards, want %d", fullCapacity, len(c.shards), maxShards)
	}
	n := 3 * fullCapacity
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("key-%d", i), i)
	}
	if c.Len() > fullCapacity {
		t.Fatalf("Len() = %d, want <= %d", c.Len(), fullCapacity)
	}
	for i := range c.shards {
		if got, limit := c.shards[i].ll.Len(), c.shards[i].cap; got > limit {
			t.Fatalf("shard %d holds %d entries, cap %d", i, got, limit)
		}
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	// Every shard's newest key survives, so the most recently added keys
	// must all still be there.
	for i := n - maxShards; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("eviction dropped key-%d, one of the most recently used entries", i)
		}
	}
}

// A full shard evicts its least recently used entry: touching the
// oldest key makes the next-oldest the victim. The single-shard case is
// an exact LRU over the whole cache.
func TestLRUEvictsOldestNotRecentlyUsed(t *testing.T) {
	for _, capacity := range []int{3, fullCapacity} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := New(capacity)
			base := "a"
			per := c.shardFor(base).cap
			// Collect per keys landing in base's shard.
			var siblings []string
			for i := 0; len(siblings) < per; i++ {
				if k := fmt.Sprintf("b%d", i); c.shardFor(k) == c.shardFor(base) {
					siblings = append(siblings, k)
				}
			}
			c.Add(base, 0)
			for i, k := range siblings[:per-1] {
				c.Add(k, i+1) // fills the shard to its cap
			}
			c.Get(base)                 // base becomes most recent
			c.Add(siblings[per-1], per) // evicts siblings[0]
			if _, ok := c.Get(siblings[0]); ok {
				t.Error("least recently used entry survived past capacity")
			}
			if _, ok := c.Get(base); !ok {
				t.Error("recently used entry was evicted")
			}
			if v, ok := c.Get(siblings[per-1]); !ok || v.(int) != per {
				t.Error("newest entry was evicted")
			}
			if ev := c.Stats().Evictions; ev != 1 {
				t.Errorf("evictions = %d, want 1", ev)
			}
		})
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New(64)
	var calls atomic.Int32
	fn := func() (any, error) {
		calls.Add(1)
		return "result", nil
	}
	v, cached, err := c.Do("k", fn)
	if err != nil || cached || v.(string) != "result" {
		t.Fatalf("first Do = %v, %v, %v", v, cached, err)
	}
	v, cached, err = c.Do("k", fn)
	if err != nil || !cached || v.(string) != "result" {
		t.Fatalf("second Do = %v, %v, %v; want cached", v, cached, err)
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(64)
	boom := errors.New("boom")
	var calls atomic.Int32
	_, _, err := c.Do("k", func() (any, error) { calls.Add(1); return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, _, err := c.Do("k", func() (any, error) { calls.Add(1); return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry Do = %v, %v", v, err)
	}
	if calls.Load() != 2 {
		t.Errorf("fn ran %d times, want 2 (error must not cache)", calls.Load())
	}
}

func TestDoCollapsesConcurrentCallers(t *testing.T) {
	c := New(64)
	var calls atomic.Int32
	gate := make(chan struct{})
	const callers = 32

	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("shared", func() (any, error) {
				calls.Add(1)
				<-gate // hold every other caller in the collapse path
				return "once", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let the herd pile up behind the single computation, then release.
	for c.Stats().Collapsed < callers-1 && calls.Load() <= 1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times under a %d-caller herd, want 1", calls.Load(), callers)
	}
	for i, v := range results {
		if v.(string) != "once" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	if c.Stats().Collapsed != callers-1 {
		t.Errorf("collapsed = %d, want %d", c.Stats().Collapsed, callers-1)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%64)
				switch i % 3 {
				case 0:
					c.Add(k, i)
				case 1:
					c.Get(k)
				default:
					if _, _, err := c.Do(k, func() (any, error) { return i, nil }); err != nil {
						t.Errorf("Do: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len() = %d, want <= 64 distinct keys", c.Len())
	}
}

func TestReset(t *testing.T) {
	c := New(2)
	c.Add("k", sized(10))
	c.Add("j", sized(20))
	c.Add("i", sized(30)) // evicts k
	c.Reset()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("Len(), Bytes() after Reset = %d, %d", c.Len(), c.Bytes())
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d after Reset, want 1: counters describe the process", ev)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("entry survived Reset")
	}
}

func TestBytesTracksByteSliceValues(t *testing.T) {
	c := New(64)
	if c.Bytes() != 0 {
		t.Fatalf("empty cache Bytes() = %d", c.Bytes())
	}
	c.Add("body", make([]byte, 100))
	c.Add("other", struct{ x int }{1}) // unsized values count as zero
	c.Add("table", sized(200))         // sized values count SizeBytes
	if got := c.Bytes(); got != 300 {
		t.Fatalf("Bytes() = %d, want 300", got)
	}
	// Refresh replaces, not accumulates.
	c.Add("body", make([]byte, 40))
	c.Add("table", sized(70))
	if got := c.Bytes(); got != 110 {
		t.Fatalf("refreshed Bytes() = %d, want 110", got)
	}
	if st := c.Stats(); st.Bytes != 110 {
		t.Fatalf("Stats().Bytes = %d, want 110", st.Bytes)
	}
	c.Reset()
	if c.Bytes() != 0 {
		t.Fatalf("post-Reset Bytes() = %d", c.Bytes())
	}
}

func TestBytesReleasedOnEviction(t *testing.T) {
	// Stuffing 100 bodies into 16 entries evicts most of them; the
	// accounted bytes must equal the surviving entries' sizes.
	c := New(16)
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprintf("key-%d", i), make([]byte, 10))
	}
	if got, want := c.Bytes(), int64(c.Len()*10); got != want {
		t.Fatalf("Bytes() = %d, want %d for %d resident entries", got, want, c.Len())
	}
}

// DeleteFunc removes exactly the matching entries across all shards,
// fixes the byte accounting, and leaves the rest servable.
func TestDeleteFunc(t *testing.T) {
	c := New(256)
	// Spread keys over shards; every ep@v1 key must go regardless of
	// which shard hashed it.
	for i := 0; i < 40; i++ {
		c.Add(fmt.Sprintf("predict|ep@v1|{\"i\":%d}", i), []byte("0123456789"))
		c.Add(fmt.Sprintf("predict|ep@v2|{\"i\":%d}", i), []byte("01234"))
	}
	before := c.Bytes()
	n := c.DeleteFunc(func(key string) bool { return strings.Contains(key, "|ep@v1|") })
	if n != 40 {
		t.Fatalf("DeleteFunc removed %d, want 40", n)
	}
	if c.Len() != 40 {
		t.Errorf("Len after delete = %d, want 40", c.Len())
	}
	if got, want := c.Bytes(), before-400; got != want {
		t.Errorf("Bytes after delete = %d, want %d", got, want)
	}
	for i := 0; i < 40; i++ {
		if _, ok := c.Get(fmt.Sprintf("predict|ep@v1|{\"i\":%d}", i)); ok {
			t.Fatalf("invalidated key %d still reachable", i)
		}
		if _, ok := c.Get(fmt.Sprintf("predict|ep@v2|{\"i\":%d}", i)); !ok {
			t.Fatalf("surviving key %d was dropped", i)
		}
	}
	if n := c.DeleteFunc(func(string) bool { return false }); n != 0 {
		t.Errorf("no-match DeleteFunc removed %d", n)
	}
}
