package cluster

// Sharded walkers: each replica of a fleet walks only its slice of an
// enumeration index space, and the slices merge back bit-identical to
// the serial walk. The slice is defined by a keyed Feistel permutation
// of the index space (internal/shard): shard i of n owns the permuted
// positions j ≡ i (mod n), a deterministic, coordination-free, exact
// partition whose cardinalities differ by at most one — and, because
// the permutation shuffles uniformly, whose *work* is balanced even
// when the enumeration order has structure (the mixed-radix walk, for
// instance, visits the first type's cheap options before its costly
// ones).
//
// Determinism across the permuted walk order rests on one rule: every
// point carries its index in the *serial* enumeration order, partial
// frontiers retain the smallest index among exact (time, energy)
// duplicates (pareto.TrackedIndexed), and MergeShardFrontiers re-offers
// the partial frontiers' survivors in ascending serial index. Because a
// Pareto frontier is order-independent up to duplicate resolution, and
// the serial walk's first-offered-wins is exactly smallest-index-wins,
// the merged frontier equals the serial frontier bit for bit — TEs and
// payloads — which TestFrontierDifferential pins for 1..7 shards over
// random specs, with and without domination pruning.

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
