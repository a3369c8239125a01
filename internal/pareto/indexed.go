package pareto

// TrackedIndexed pairs an OnlineFrontier with a payload slice that
// mirrors every splice, so streaming consumers can keep the full
// configuration (not just its TE projection) for exactly the points
// currently on the frontier. Alongside each retained payload it carries
// the point's index in some canonical enumeration order, and among exact
// (time, energy) duplicates it keeps the smallest-indexed offer no
// matter the order offers arrive. A walk that offers its points in
// ascending index therefore gets first-offered-wins, the rule of
// OnlineFrontier; a sharded walker visits its slice in permuted order,
// and the index rule is what lets its partial frontier — and a merge of
// partial frontiers — land bit-identical to the serial walk. The zero
// value is ready for use.
type TrackedIndexed[T any] struct {
	// f's entries carry their canonical index in TE.Index.
	f       OnlineFrontier
	payload []T
}

// Insert offers (te, v) carrying canonical index idx. When te joins the
// frontier the value and index are retained (mirroring the frontier's
// splice); when te exactly duplicates a retained point and idx is
// smaller, the retained payload and index are replaced in place — the
// frontier's (time, energy) sequence is unchanged, so added stays
// false.
func (t *TrackedIndexed[T]) Insert(te TE, idx uint64, v T) (added bool, err error) {
	te.Index = int(idx)
	pos, removed, added, err := t.f.insert(te)
	if err != nil {
		return false, err
	}
	if added {
		if removed > 0 {
			t.payload[pos] = v
			t.payload = append(t.payload[:pos+1], t.payload[pos+removed:]...)
		} else {
			var zero T
			t.payload = append(t.payload, zero)
			copy(t.payload[pos+1:], t.payload[pos:])
			t.payload[pos] = v
		}
		return true, nil
	}
	// Rejected offers are usually dominated and cost nothing more; only
	// an exact duplicate of a retained point can displace it, and only
	// toward a smaller canonical index. insert reports where that
	// duplicate would sit.
	pts := t.f.pts
	if pos < len(pts) && pts[pos].Time == te.Time && pts[pos].Energy == te.Energy && idx < uint64(pts[pos].Index) {
		t.payload[pos] = v
		pts[pos].Index = te.Index
	}
	return false, nil
}

// Len returns the current frontier size.
func (t *TrackedIndexed[T]) Len() int { return t.f.Len() }

// Frontier returns the retained payloads, their TEs (time-ascending,
// with each Index rewritten to the payload's position) and each point's
// canonical enumeration index.
func (t *TrackedIndexed[T]) Frontier() ([]T, []TE, []uint64) {
	tes := t.f.Frontier()
	var idxs []uint64
	if len(tes) > 0 {
		idxs = make([]uint64, len(tes))
	}
	for i := range tes {
		idxs[i] = uint64(tes[i].Index)
		tes[i].Index = i
	}
	return append([]T(nil), t.payload...), tes, idxs
}
