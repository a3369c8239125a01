package tablecache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeArtifact is a test artifact with a fixed reported size.
type fakeArtifact struct {
	id   int
	size int
}

func (a fakeArtifact) SizeBytes() int { return a.size }

func TestGetAddLRUAndBytes(t *testing.T) {
	c := New(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Add("a", fakeArtifact{1, 100})
	c.Add("b", fakeArtifact{2, 200})
	if got := c.Bytes(); got != 300 {
		t.Fatalf("bytes = %d, want 300", got)
	}
	// Touch a so b is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should hit")
	}
	c.Add("c", fakeArtifact{3, 50})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if got := c.Bytes(); got != 150 {
		t.Fatalf("bytes after eviction = %d, want 150", got)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	// Re-adding an existing key refreshes value, recency and bytes.
	c.Add("c", fakeArtifact{4, 70})
	if got := c.Bytes(); got != 170 {
		t.Fatalf("bytes after refresh = %d, want 170", got)
	}
	v, ok := c.Get("c")
	if !ok || v.(fakeArtifact).id != 4 {
		t.Fatalf("refresh should replace the value, got %v", v)
	}
}

func TestDoBuildsOnceAndCaches(t *testing.T) {
	c := New(0)
	var builds atomic.Int64
	build := func() (any, error) {
		builds.Add(1)
		return fakeArtifact{1, 10}, nil
	}
	v, cached, err := c.Do("k", build)
	if err != nil || cached || v.(fakeArtifact).id != 1 {
		t.Fatalf("first Do = (%v, %v, %v)", v, cached, err)
	}
	v, cached, err = c.Do("k", build)
	if err != nil || !cached || v.(fakeArtifact).id != 1 {
		t.Fatalf("second Do = (%v, %v, %v)", v, cached, err)
	}
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
}

func TestDoNeverCachesErrors(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	var builds atomic.Int64
	for i := 0; i < 3; i++ {
		_, cached, err := c.Do("k", func() (any, error) {
			builds.Add(1)
			return nil, boom
		})
		if !errors.Is(err, boom) || cached {
			t.Fatalf("Do %d = (cached=%v, err=%v)", i, cached, err)
		}
	}
	if builds.Load() != 3 {
		t.Fatalf("failed build should rerun every time, ran %d", builds.Load())
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("error should leave the cache empty, len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// A later success lands normally.
	v, _, err := c.Do("k", func() (any, error) { return fakeArtifact{9, 5}, nil })
	if err != nil || v.(fakeArtifact).id != 9 {
		t.Fatalf("recovery Do = (%v, %v)", v, err)
	}
}

func TestDoSingleflightCollapses(t *testing.T) {
	c := New(0)
	const callers = 8
	release := make(chan struct{})
	var builds atomic.Int64
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() (any, error) {
				builds.Add(1)
				<-release
				return fakeArtifact{7, 10}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the one builder holds the flight and every other caller
	// has joined it, then release it. A caller that reached Do only after
	// the release would hit the cache instead of collapsing. The wait is
	// bounded so a broken counter fails below rather than hanging.
	deadline := time.Now().Add(5 * time.Second)
	for (builds.Load() == 0 || c.Stats().Collapsed < callers-1) && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times under contention, want 1", builds.Load())
	}
	for i, v := range results {
		if v.(fakeArtifact).id != 7 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	if got := c.Stats().Collapsed; got != callers-1 {
		t.Fatalf("collapsed counter = %d, want %d", got, callers-1)
	}
}

func TestResetAndDefaultCapacity(t *testing.T) {
	c := New(-1)
	for i := 0; i < DefaultCapacity+10; i++ {
		c.Add(fmt.Sprintf("k%d", i), fakeArtifact{i, 1})
	}
	if c.Len() != DefaultCapacity {
		t.Fatalf("len = %d, want %d", c.Len(), DefaultCapacity)
	}
	c.Reset()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("reset should empty the cache, len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if c.Stats().Evictions != 10 {
		t.Fatalf("evictions survive reset, got %d want 10", c.Stats().Evictions)
	}
}

// DeleteFunc removes exactly the matching artifacts, fixes the byte
// accounting, and leaves the rest servable.
func TestDeleteFunc(t *testing.T) {
	c := New(8)
	c.Add("table|ep@v1|false", fakeArtifact{id: 1, size: 100})
	c.Add("table|ep@v1|true", fakeArtifact{id: 2, size: 50})
	c.Add("table|memcached@v1|false", fakeArtifact{id: 3, size: 30})
	n := c.DeleteFunc(func(key string) bool { return strings.Contains(key, "|ep@v1|") })
	if n != 2 {
		t.Fatalf("DeleteFunc removed %d, want 2", n)
	}
	if _, ok := c.Get("table|ep@v1|false"); ok {
		t.Error("invalidated artifact still reachable")
	}
	if _, ok := c.Get("table|memcached@v1|false"); !ok {
		t.Error("unrelated artifact was dropped")
	}
	if got := c.Bytes(); got != 30 {
		t.Errorf("Bytes after delete = %d, want 30", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len after delete = %d, want 1", c.Len())
	}
	if n := c.DeleteFunc(func(string) bool { return false }); n != 0 {
		t.Errorf("no-match DeleteFunc removed %d", n)
	}
}
