package servercache

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// held returns the form the cache holds key's value in.
func (c *Cache) held(key string) any {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key].Value.(*lruEntry).val
}

// TestPackedValues: a []byte of packMinBytes or more is held deflated,
// smaller than its raw bytes, and every read path (Get, Do's hit, the
// stale fallback, Hottest) returns exactly the raw bytes; the byte
// accounting counts the raw length; a smaller []byte and a non-byte
// value are held as they are.
func TestPackedValues(t *testing.T) {
	now := time.Unix(0, 0)
	c := New(64)
	c.now = func() time.Time { return now }
	big := bytes.Repeat([]byte(`{"time_seconds":1.5,"energy_joules":2.25},`), 200)
	small := []byte(`{"ok":true}`)
	c.Add("big", big)
	c.Add("small", small)
	c.Add("table", sized(7))

	p, ok := c.held("big").(packed)
	if !ok || len(p) >= len(big) {
		t.Fatalf("big value held as %T of %d bytes; want packed below %d", c.held("big"), len(p), len(big))
	}
	if _, ok := c.held("small").([]byte); !ok {
		t.Errorf("small value held as %T, want []byte", c.held("small"))
	}
	if got, want := c.Bytes(), int64(len(big)+len(small)+7); got != want {
		t.Errorf("Bytes() = %d, want the raw total %d", got, want)
	}

	if v, ok := c.Get("big"); !ok || !bytes.Equal(v.([]byte), big) {
		t.Fatal("Get changed the big value")
	}
	if v, cached, err := c.Do("big", func() (any, error) { t.Fatal("Do recomputed a cached value"); return nil, nil }); err != nil || !cached || !bytes.Equal(v.([]byte), big) {
		t.Fatalf("Do hit: cached %v, err %v, equal %v", cached, err, bytes.Equal(v.([]byte), big))
	}
	now = now.Add(time.Minute)
	v, _, stale, err := c.DoFresh("big", time.Second, func() (any, error) { return nil, errors.New("down") })
	if !stale || err == nil || !bytes.Equal(v.([]byte), big) {
		t.Fatalf("stale fallback: stale %v, err %v, equal %v", stale, err, bytes.Equal(v.([]byte), big))
	}
	for _, e := range c.Hottest(0) {
		if e.Key == "big" && !bytes.Equal(e.Val.([]byte), big) {
			t.Fatal("Hottest changed the big value")
		}
	}
}
