package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"unsafe"
)

// GenericTable is the exported, reusable form of the generic N-type
// evaluation-kernel layer (generic_kernel.go), the analogue of Table for
// arbitrary type lists. It is compiled once per cluster spec — the type
// list alone — and is deliberately independent of every per-request
// parameter: the work volume enters only the per-point arithmetic, so
// one table answers every work size, deadline and frontier query against
// the same cluster. One-shot drivers can keep calling EnumerateGroups*
// (which build a table internally); long-lived consumers — the serving
// daemon caches tables per cluster spec in its table cache — build
// once and amortize the model walk across requests. A GenericTable is
// immutable after construction and safe for concurrent use.
type GenericTable struct {
	t     *genericTable
	types int
	// cands is the frontier candidate set WithCandidates folded; nil
	// makes every Frontier call fold its own.
	cands *candidateSet
}

// NewGenericTable validates types and precompiles every (count,
// per-node configuration) option's kernel coefficients. Respect any
// Configs restriction already on the types (e.g. from PruneGroupTypes);
// pruned and unpruned type lists compile to distinct tables.
func NewGenericTable(types []GroupType) (*GenericTable, error) {
	t, err := newGenericTable(types)
	if err != nil {
		return nil, err
	}
	return &GenericTable{t: t, types: len(types)}, nil
}

// WithCandidates returns the table with its frontier candidates
// (candidates.go) folded once, so each Frontier call only scores them.
// The fold costs several warm answers and serves every work volume;
// build it before the table is shared or cached, so SizeBytes counts
// it.
func (g *GenericTable) WithCandidates() *GenericTable {
	if g.cands != nil {
		return g
	}
	sc := foldPool.Get().(*foldScratch)
	defer foldPool.Put(sc)
	h := *g
	h.cands = &candidateSet{ok: g.t.fold(sc)}
	if h.cands.ok {
		h.cands.idx = slices.Clone(sc.idx)
	}
	return &h
}

// Candidates returns how many points Frontier(w) scores: the candidate
// set's size, or the whole space for a work volume (or a table) outside
// the set's rounding bound. Without WithCandidates it folds the set to
// count it.
func (g *GenericTable) Candidates(w float64) uint64 {
	sc := foldPool.Get().(*foldScratch)
	defer foldPool.Put(sc)
	cs := g.candidates(sc)
	if !cs.covers(w) {
		return g.t.size
	}
	return uint64(len(cs.idx))
}

// Types returns how many node types the table was compiled over.
func (g *GenericTable) Types() int { return g.types }

// Size returns the number of points the table's space holds (saturated
// at math.MaxUint64 for astronomically large bounds).
func (g *GenericTable) Size() uint64 { return g.t.size }

// SizeBytes estimates the table's resident size for cache accounting:
// the option arrays dominate (one entry per (count, configuration)
// choice per type), then the candidate indices WithCandidates folded;
// headers and per-type scalars are counted once.
func (g *GenericTable) SizeBytes() int {
	const optSize = int(unsafe.Sizeof(genOption{}))
	const sliceHeader = int(unsafe.Sizeof([]genOption(nil)))
	n := int(unsafe.Sizeof(GenericTable{})) + int(unsafe.Sizeof(genericTable{}))
	for _, opts := range g.t.opts {
		n += sliceHeader + len(opts)*optSize
	}
	n += len(g.t.switchW)*8 + len(g.t.radix)*8 + len(g.t.stride)*8
	if g.cands != nil {
		n += int(unsafe.Sizeof(candidateSet{})) + len(g.cands.idx)*8
	}
	return n
}

// check guards the per-call invariants every evaluation method shares.
func (g *GenericTable) check(w float64) error {
	if err := validWork(w); err != nil {
		return err
	}
	if g.t.size == 0 {
		return fmt.Errorf("cluster: generic space is empty (all MaxNodes zero?)")
	}
	return nil
}

// ForEach streams every point of the space for w work units to yield,
// in EnumerateGroups's order, without materializing anything. The
// yielded point's slices are scratch buffers valid only during the
// call — copy them (or take its Summary) to retain. Returning false from yield stops the walk
// early (not an error).
func (g *GenericTable) ForEach(w float64, yield func(GenericPoint) bool) error {
	if err := g.check(w); err != nil {
		return err
	}
	g.t.forEach(g.t.newCursor(), w, yield)
	return nil
}

// Enumerate materializes every point of the space for w work units, in
// the same order and with the same flat-backing allocation discipline
// as EnumerateGroups.
func (g *GenericTable) Enumerate(w float64) ([]GenericPoint, error) {
	if err := g.check(w); err != nil {
		return nil, err
	}
	n, err := g.t.intSize()
	if err != nil {
		return nil, err
	}
	out := make([]GenericPoint, 0, n)
	bk := newGenBacking(n, g.types)
	g.t.forEach(g.t.newCursor(), w, func(p GenericPoint) bool {
		out = append(out, bk.copy(p))
		return true
	})
	return out, nil
}

// EnumerateParallel is Enumerate fanned out over a worker pool with the
// dynamic atomic-cursor chunking of EnumerateGroupsParallel; results are
// written by index, so the merge is deterministic and bit-identical to
// the serial order. workers <= 0 selects GOMAXPROCS.
func (g *GenericTable) EnumerateParallel(w float64, workers int) ([]GenericPoint, error) {
	if err := g.check(w); err != nil {
		return nil, err
	}
	n, err := g.t.intSize()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]GenericPoint, n)
	err = parallelFor(n, workers, parallelChunk, func(lo, hi int) error {
		c := g.t.newCursor()
		bk := newGenBacking(hi-lo, g.types)
		for i := lo; i < hi; i++ {
			// Point indices are 1-based: index 0 is the all-absent vector.
			g.t.at(c, uint64(i)+1, w)
			out[i] = bk.copy(c.p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
