package cluster

import (
	"reflect"
	"testing"

	"heteromix/internal/shard"
)

// shardSpecs is the adversarial shard-count battery from the issue:
// unsharded, even splits, and a count coprime to everything in the
// space's factorization.
var shardSpecs = []int{1, 2, 4, 7}

// TestShardedEnumerationPartitionsSpace: the n shard slices forShard
// visits cover every serial index exactly once, match SliceSize, and
// the point at decodes to at each index is the serial enumeration's.
func TestShardedEnumerationPartitionsSpace(t *testing.T) {
	const w = 50e6
	g, err := NewGenericTable(triTypes(t, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := g.Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(serial))
	c := g.t.newCursor()
	for _, n := range shardSpecs {
		seen := make([]bool, size)
		total := uint64(0)
		for i := 0; i < n; i++ {
			sh := shard.Shard{Index: i, Count: n}
			got := uint64(0)
			forShard(size, sh, func(idx uint64) bool {
				if idx >= size {
					t.Fatalf("n=%d shard %d: index %d out of space", n, i, idx)
				}
				if seen[idx] {
					t.Fatalf("n=%d: index %d owned by two shards", n, idx)
				}
				seen[idx] = true
				g.t.at(c, idx+1, w)
				if !reflect.DeepEqual(c.p, serial[idx]) {
					t.Fatalf("n=%d shard %d: point at index %d differs from serial enumeration\n got %+v\nwant %+v",
						n, i, idx, c.p, serial[idx])
				}
				got++
				return true
			})
			if got != sh.SliceSize(size) {
				t.Fatalf("n=%d shard %d: %d points, SliceSize says %d", n, i, got, sh.SliceSize(size))
			}
			total += got
		}
		if total != size {
			t.Fatalf("n=%d: shards cover %d of %d points", n, total, size)
		}
	}
}

// TestShardWalkValidation: malformed shard specs and invalid work are
// rejected by the shard walk, and the merge rejects ragged parts.
func TestShardWalkValidation(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []shard.Shard{{Index: 0, Count: 0}, {Index: 4, Count: 4}, {Index: -1, Count: 2}} {
		if _, err := g.FrontierShard(50e6, sh); err == nil {
			t.Fatalf("FrontierShard accepted %+v", sh)
		}
	}
	if _, err := g.FrontierShard(-1, shard.Shard{Index: 0, Count: 1}); err == nil {
		t.Fatal("FrontierShard accepted negative work")
	}
	if _, err := MergeShardFrontiers([]ShardFrontier[int]{{Points: []int{1}, TEs: nil, Indices: []uint64{0}}}); err == nil {
		t.Fatal("MergeShardFrontiers accepted a ragged part")
	}
}
