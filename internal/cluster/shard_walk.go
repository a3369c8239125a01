package cluster

// Sharded walkers: each replica of a fleet walks only its slice of an
// enumeration index space, and the slices merge back bit-identical to
// the serial walk. The slice is defined by a keyed Feistel permutation
// of the index space (internal/shard): shard i of n owns the permuted
// positions j ≡ i (mod n), a deterministic, coordination-free, exact
// partition whose cardinalities differ by at most one — and, because
// the permutation shuffles uniformly, whose *work* is balanced even
// when the enumeration order has structure (the two-type walk, for
// instance, puts all mixed configurations before the homogeneous ones).
//
// Determinism across the permuted walk order rests on one rule: every
// point carries its index in the *serial* enumeration order, partial
// frontiers retain the smallest index among exact (time, energy)
// duplicates (pareto.TrackedIndexed), and MergeShardFrontiers re-offers
// the partial frontiers' survivors in ascending serial index. Because a
// Pareto frontier is order-independent up to duplicate resolution, and
// the serial walk's first-offered-wins is exactly smallest-index-wins,
// the merged frontier equals the serial frontier bit for bit — TEs and
// payloads — which TestShardedFrontierBitIdentical pins for 1/2/4/7
// shards with and without domination pruning.

import (
	"fmt"
	"slices"
	"sort"

	"heteromix/internal/pareto"
	"heteromix/internal/shard"
)

// ShardFrontier is one shard's partial Pareto frontier: the retained
// points, their TEs (time-ascending) and each point's index in the
// serial enumeration order — the merge key.
type ShardFrontier[T any] struct {
	Points  []T
	TEs     []pareto.TE
	Indices []uint64
}

// forShard visits shard sh's serial indices of a size-point space: the
// permuted positions j ≡ sh.Index (mod sh.Count), mapped to their serial
// index perm(j), until visit returns false.
func forShard(size uint64, sh shard.Shard, visit func(idx uint64) bool) {
	perm := shard.NewPermutation(size, shard.DefaultSeed)
	for j := uint64(sh.Index); j < size; j += uint64(sh.Count) {
		if !visit(perm.Apply(j)) {
			return
		}
	}
}

// checkShard guards a generic shard walk's parameters.
func (g *GenericTable) checkShard(w float64, sh shard.Shard) error {
	if err := g.check(w); err != nil {
		return err
	}
	return sh.Validate()
}

// checkShardBounds guards a two-type shard walk's parameters.
func checkShardBounds(maxARM, maxAMD int, w float64, sh shard.Shard) error {
	if err := checkBounds(maxARM, maxAMD, w); err != nil {
		return err
	}
	return sh.Validate()
}

// ForEachShard streams shard sh's slice of the space for w work units:
// the permuted positions j ≡ sh.Index (mod sh.Count), evaluated at
// their serial index perm(j) and yielded with that index. The yielded
// point is scratch, as in ForEach; yield returning false stops the walk
// early (not an error).
func (g *GenericTable) ForEachShard(w float64, sh shard.Shard, yield func(p GenericPoint, index uint64) bool) error {
	if err := g.checkShard(w, sh); err != nil {
		return err
	}
	c := g.t.newCursor()
	forShard(g.t.size, sh, func(idx uint64) bool {
		// Serial index idx maps to mixed-radix vector idx+1: vector 0 is
		// the all-absent one, so every vector in [1, size] is a real point
		// and at cannot report absent here.
		g.t.at(c, idx+1, w)
		return yield(c.p, idx)
	})
	return nil
}

// EnumerateGroupsShard materializes shard sh's slice of the generic
// space in its permuted walk order, returning each point with its
// serial enumeration index. The union of all sh.Count slices is exactly
// EnumerateGroups's output (as a set keyed by index).
func EnumerateGroupsShard(types []GroupType, w float64, sh shard.Shard) ([]GenericPoint, []uint64, error) {
	g, err := NewGenericTable(types)
	if err != nil {
		return nil, nil, err
	}
	if err := g.checkShard(w, sh); err != nil {
		return nil, nil, err
	}
	if _, err := g.t.intSize(); err != nil {
		return nil, nil, err
	}
	n := int(sh.SliceSize(g.t.size))
	out := make([]GenericPoint, 0, n)
	idxs := make([]uint64, 0, n)
	bk := newGenBacking(n, g.types)
	err = g.ForEachShard(w, sh, func(p GenericPoint, idx uint64) bool {
		out = append(out, bk.copy(p))
		idxs = append(idxs, idx)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return out, idxs, nil
}

// ForEachShard is the two-type equivalent: shard sh's slice of the
// bounded (maxARM, maxAMD) space, yielded with serial indices in
// Enumerate's order.
func (t *Table) ForEachShard(maxARM, maxAMD int, w float64, sh shard.Shard, yield func(p Point, index uint64) bool) error {
	if err := checkShardBounds(maxARM, maxAMD, w, sh); err != nil {
		return err
	}
	v := t.view(maxARM, maxAMD)
	forShard(v.size, sh, func(idx uint64) bool { return yield(v.pointAt(idx, w), idx) })
	return nil
}

// MergeShardFrontiers merges partial frontiers into the frontier of the
// union of their spaces: every survivor is re-offered in ascending
// serial index, so cross-shard domination is applied and duplicate
// resolution matches the serial walk. Merging the sh.Count slices of
// one space reproduces that space's serial frontier bit for bit.
func MergeShardFrontiers[T any](parts []ShardFrontier[T]) (ShardFrontier[T], error) {
	type ref struct{ part, i int } // a survivor's place in parts
	total := 0
	for _, p := range parts {
		if len(p.TEs) != len(p.Points) || len(p.Indices) != len(p.Points) {
			return ShardFrontier[T]{}, fmt.Errorf("cluster: ragged shard frontier (%d points, %d TEs, %d indices)",
				len(p.Points), len(p.TEs), len(p.Indices))
		}
		total += len(p.Points)
	}
	refs := make([]ref, 0, total)
	for pi, p := range parts {
		for i := range p.Points {
			refs = append(refs, ref{pi, i})
		}
	}
	idx := func(r ref) uint64 { return parts[r.part].Indices[r.i] }
	sort.Slice(refs, func(i, j int) bool { return idx(refs[i]) < idx(refs[j]) })
	var tr pareto.TrackedIndexed[ref]
	for _, r := range refs {
		te := parts[r.part].TEs[r.i]
		if _, err := tr.Insert(pareto.TE{Time: te.Time, Energy: te.Energy}, idx(r), r); err != nil {
			return ShardFrontier[T]{}, err
		}
	}
	kept, tes, idxs := tr.Frontier()
	pts := slices.Grow([]T(nil), len(kept))
	for _, r := range kept {
		pts = append(pts, parts[r.part].Points[r.i])
	}
	return ShardFrontier[T]{Points: pts, TEs: tes, Indices: idxs}, nil
}
