package tablecache

import (
	"fmt"
	"strings"
	"testing"
)

// TestBytesExactAfterSweep is the preheat-era accounting regression
// test: after bulk inserts, updates and a DeleteFunc sweep, Stats.Bytes
// must equal what a cache freshly rebuilt from the survivors reports —
// accounting drift would make byte-limited preheat trim the wrong
// amount.
func TestBytesExactAfterSweep(t *testing.T) {
	c := New(128)
	for i := 0; i < 64; i++ {
		c.Add(fmt.Sprintf("k%03d", i), fakeArtifact{id: i, size: 100 + i})
	}
	// Re-add half the keys with different sizes (the update path).
	for i := 0; i < 32; i++ {
		c.Add(fmt.Sprintf("k%03d", i), fakeArtifact{id: i, size: 10 + i})
	}
	c.DeleteFunc(func(key string) bool { return strings.HasSuffix(key, "7") })

	rebuilt := New(128)
	for _, e := range c.Hottest(0) {
		rebuilt.Add(e.Key, e.Val)
	}
	if got, want := c.Stats().Bytes, rebuilt.Stats().Bytes; got != want {
		t.Fatalf("Stats.Bytes = %d after sweep, freshly rebuilt cache reports %d", got, want)
	}
	if got, want := c.Len(), rebuilt.Len(); got != want {
		t.Fatalf("Len = %d after sweep, rebuilt = %d", got, want)
	}
	// And the figure must be the straightforward sum of survivors.
	var sum int64
	for _, e := range c.Hottest(0) {
		sum += int64(e.Val.(fakeArtifact).SizeBytes())
	}
	if got := c.Bytes(); got != sum {
		t.Fatalf("Bytes() = %d, survivors sum to %d", got, sum)
	}
}

func TestSetMaxBytesEvictsColdestFirst(t *testing.T) {
	c := New(100)
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i), fakeArtifact{id: i, size: 10})
	}
	c.SetMaxBytes(35) // room for 3 entries of 10
	if got := c.Bytes(); got > 35 {
		t.Fatalf("Bytes = %d exceeds limit 35", got)
	}
	if got, want := c.Len(), 3; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Survivors must be the hottest (most recently added) entries.
	for _, e := range c.Hottest(0) {
		if e.Val.(fakeArtifact).id < 7 {
			t.Fatalf("cold entry %q survived byte-limit eviction", e.Key)
		}
	}
	// Adds past the limit keep evicting.
	c.Add("new", fakeArtifact{id: 99, size: 10})
	if got := c.Bytes(); got > 35 {
		t.Fatalf("Bytes = %d exceeds limit after Add", got)
	}
	if _, ok := c.Get("new"); !ok {
		t.Fatal("freshly added entry must survive its own eviction pass")
	}
}

func TestMaxBytesKeepsSingleOversizedEntry(t *testing.T) {
	c := New(10)
	c.SetMaxBytes(5)
	c.Add("big", fakeArtifact{id: 1, size: 100})
	if _, ok := c.Get("big"); !ok {
		t.Fatal("a single artifact larger than the limit must stay resident")
	}
	c.Add("big2", fakeArtifact{id: 2, size: 100})
	if got, want := c.Len(), 1; got != want {
		t.Fatalf("Len = %d, want %d (older oversized entry evicted)", got, want)
	}
	if _, ok := c.Get("big2"); !ok {
		t.Fatal("newest oversized artifact must be the survivor")
	}
}

func TestHottestOrderAndLimit(t *testing.T) {
	c := New(10)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprintf("k%d", i), fakeArtifact{id: i, size: 1})
	}
	c.Get("k1") // k1 becomes hottest
	got := c.Hottest(3)
	if len(got) != 3 {
		t.Fatalf("Hottest(3) returned %d entries", len(got))
	}
	wantKeys := []string{"k1", "k4", "k3"}
	for i, e := range got {
		if e.Key != wantKeys[i] {
			t.Fatalf("Hottest order = %v..., want %v", e.Key, wantKeys)
		}
	}
	// Hottest must not perturb recency: k1 still hottest, k0 still coldest.
	all := c.Hottest(0)
	if len(all) != 5 || all[0].Key != "k1" || all[4].Key != "k0" {
		t.Fatalf("Hottest(0) perturbed recency: %v", all)
	}
}
