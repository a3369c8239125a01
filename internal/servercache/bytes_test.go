package servercache

import (
	"fmt"
	"strings"
	"testing"
)

// TestBytesExactAfterSweep is the preheat-era accounting regression
// test: after bulk inserts, value updates and a DeleteFunc sweep,
// Stats.Bytes must equal what a cache freshly rebuilt from the
// survivors reports.
func TestBytesExactAfterSweep(t *testing.T) {
	c := New(256)
	for i := 0; i < 128; i++ {
		c.Add(fmt.Sprintf("k%03d", i), make([]byte, 50+i))
	}
	// Update a third of the keys with different sizes, and mix in
	// sized values (compiled tables) and unsized ones (counted as zero),
	// each updated once too.
	for i := 0; i < 40; i++ {
		c.Add(fmt.Sprintf("k%03d", i), make([]byte, 5+i))
	}
	for i := 0; i < 8; i++ {
		c.Add(fmt.Sprintf("t%d", i), sized(100+i))
		c.Add(fmt.Sprintf("u%d", i), struct{ x int }{i})
	}
	for i := 0; i < 4; i++ {
		c.Add(fmt.Sprintf("t%d", i), sized(10+i))
	}
	c.DeleteFunc(func(key string) bool { return strings.HasSuffix(key, "3") })

	rebuilt := New(256)
	for _, e := range c.Hottest(0) {
		rebuilt.Add(e.Key, e.Val)
	}
	if got, want := c.Stats().Bytes, rebuilt.Stats().Bytes; got != want {
		t.Fatalf("Stats.Bytes = %d after sweep, freshly rebuilt cache reports %d", got, want)
	}
	if got, want := c.Len(), rebuilt.Len(); got != want {
		t.Fatalf("Len = %d after sweep, rebuilt = %d", got, want)
	}
	var sum int64
	for _, e := range c.Hottest(0) {
		sum += sizeOf(e.Val)
	}
	if got := c.Bytes(); got != sum {
		t.Fatalf("Bytes() = %d, survivors sum to %d", got, sum)
	}
}

func TestSetMaxBytesBoundsResidency(t *testing.T) {
	c := New(fullCapacity)
	for i := 0; i < maxShards*32; i++ {
		c.Add(fmt.Sprintf("key-%04d", i), make([]byte, 100))
	}
	before := c.Bytes()
	c.SetMaxBytes(before / 4)
	if got := c.Bytes(); got > before/4+maxShards*100 {
		// Per-shard rounding can leave at most one extra entry per shard.
		t.Fatalf("Bytes = %d, limit %d not enforced", got, before/4)
	}
	if got := c.Len(); got == 0 {
		t.Fatal("byte limit must not empty the cache")
	}
	// Adds keep respecting the limit.
	limit := c.MaxBytes()
	for i := 0; i < maxShards*8; i++ {
		c.Add(fmt.Sprintf("new-%04d", i), make([]byte, 100))
	}
	if got := c.Bytes(); got > limit+maxShards*100 {
		t.Fatalf("Bytes = %d after adds, limit %d", got, limit)
	}

	// A single-shard cache enforces the limit exactly, coldest first.
	one := New(100)
	for i := 0; i < 10; i++ {
		one.Add(fmt.Sprintf("k%d", i), sized(10))
	}
	one.SetMaxBytes(35) // room for 3 entries of 10
	if got, n := one.Bytes(), one.Len(); got != 30 || n != 3 {
		t.Fatalf("single shard: Bytes, Len = %d, %d; want 30, 3", got, n)
	}
	for _, e := range one.Hottest(0) {
		if e.Key < "k7" {
			t.Fatalf("cold entry %q survived byte-limit eviction", e.Key)
		}
	}
	one.Add("new", sized(10))
	if got := one.Bytes(); got > 35 {
		t.Fatalf("single shard: Bytes = %d exceeds limit after Add", got)
	}
	if _, ok := one.Get("new"); !ok {
		t.Fatal("freshly added entry must survive its own eviction pass")
	}
	// A single value larger than the limit stays resident alone: evicting
	// it would only force the next request to recompute it.
	one.Add("big", sized(100))
	one.Add("big2", sized(100))
	if _, ok := one.Get("big2"); !ok || one.Len() != 1 {
		t.Fatalf("oversized newest entry: resident %v, Len %d; want it alone", ok, one.Len())
	}
}

// Refreshing a key with a larger value must re-run eviction: the byte
// limit holds after every Add, not only after inserts of new keys.
func TestAddRefreshEnforcesByteLimit(t *testing.T) {
	c := New(64)
	c.SetMaxBytes(100)
	c.Add("a", make([]byte, 10))
	c.Add("b", make([]byte, 10))
	c.Add("a", make([]byte, 95))
	if got := c.Bytes(); got > 100 {
		t.Fatalf("Bytes = %d in %d entries after refresh, limit 100", got, c.Len())
	}
	if v, ok := c.Get("a"); !ok || len(v.([]byte)) != 95 {
		t.Fatal("refreshed entry must survive its own eviction pass")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("colder entry survived a refresh that overran the limit")
	}
}

// MaxBytes reports the configured total, not the per-shard split
// rounded back up.
func TestMaxBytesReportsConfiguredLimit(t *testing.T) {
	for _, capacity := range []int{64, fullCapacity} {
		c := New(capacity)
		for _, n := range []int64{100, 1 << 20, 0} {
			c.SetMaxBytes(n)
			if got := c.MaxBytes(); got != n {
				t.Errorf("New(%d): SetMaxBytes(%d) then MaxBytes() = %d", capacity, n, got)
			}
		}
		c.SetMaxBytes(-5)
		if got := c.MaxBytes(); got != 0 {
			t.Errorf("New(%d): negative limit reads back as %d, want 0", capacity, got)
		}
	}
}

func TestHottestInterleavesShards(t *testing.T) {
	c := New(fullCapacity)
	for i := 0; i < 64; i++ {
		c.Add(fmt.Sprintf("k%03d", i), []byte{byte(i)})
	}
	all := c.Hottest(0)
	if len(all) != 64 {
		t.Fatalf("Hottest(0) returned %d entries, want 64", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.Key] {
			t.Fatalf("duplicate key %q", e.Key)
		}
		seen[e.Key] = true
	}
	top := c.Hottest(10)
	if len(top) != 10 {
		t.Fatalf("Hottest(10) returned %d entries", len(top))
	}
	// The first round of the interleave takes each shard's most recent
	// entry, so every first-round pick must be its shard's list head.
	for _, e := range top {
		s := c.shardFor(e.Key)
		s.mu.Lock()
		head := s.ll.Front().Value.(*lruEntry).key
		s.mu.Unlock()
		if head != e.Key {
			// Later rounds pick non-heads once shards are exhausted; only
			// assert while we are within the first maxShards picks.
			break
		}
	}

	// A single-shard cache reports its exact recency order, and Hottest
	// itself does not perturb it.
	one := New(10)
	for i := 0; i < 5; i++ {
		one.Add(fmt.Sprintf("k%d", i), sized(1))
	}
	one.Get("k1") // k1 becomes hottest
	got := one.Hottest(3)
	if len(got) != 3 || got[0].Key != "k1" || got[1].Key != "k4" || got[2].Key != "k3" {
		t.Fatalf("single shard Hottest(3) = %v, want k1, k4, k3", got)
	}
	all = one.Hottest(0)
	if len(all) != 5 || all[0].Key != "k1" || all[4].Key != "k0" {
		t.Fatalf("Hottest perturbed recency: %v", all)
	}
}
