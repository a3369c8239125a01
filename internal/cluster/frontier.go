package cluster

import (
	"context"
	"math"
	"runtime"
	"slices"

	"heteromix/internal/pareto"
	"heteromix/internal/shard"
)

// This file is the score walk under every frontier path. Only (T, E)
// decide whether a point joins the energy-deadline frontier, and only a
// handful to a few hundred of up to hundreds of thousands of points
// survive, so a frontier walk computes nothing else per point: it
// offers (serial index, T, E) to a frontier that keeps indices only,
// and once the walk is done it decodes the survivors through the
// random-access at (N-type) or pointAt (the paper-order two-type view). A serial index is a point's
// 0-based position in its enumeration order; the N-type order's index s
// is mixed-radix vector s+1, past the all-absent vector 0. The frontier
// keeps the smallest index among exact (T, E) duplicates, which is
// first-offered-wins for the ascending serial and parallel walks and
// makes the permuted shard walks merge deterministically.

// indexFrontier is a score walk's frontier: each survivor's serial
// index, no payload.
type indexFrontier struct {
	tr  pareto.TrackedIndexed[struct{}]
	err error
}

// offer inserts one scored point; false (with f.err set) stops the walk.
func (f *indexFrontier) offer(idx uint64, tt, e float64) bool {
	if _, err := f.tr.Insert(pareto.TE{Time: tt, Energy: e}, idx, struct{}{}); err != nil {
		f.err = err
		return false
	}
	return true
}

// survivors decodes f's points, time-ascending, with decode(serial
// index); an empty frontier decodes to nil slices.
func survivors[P any](f *indexFrontier, decode func(idx uint64) P) (ShardFrontier[P], error) {
	if f.err != nil {
		return ShardFrontier[P]{}, f.err
	}
	_, tes, idxs := f.tr.Frontier()
	pts := slices.Grow([]P(nil), len(idxs))
	for _, idx := range idxs {
		pts = append(pts, decode(idx))
	}
	return ShardFrontier[P]{Points: pts, TEs: tes, Indices: idxs}, nil
}

// scoreRun offers box [lo, hi)'s points from the odometer's current
// vector on — at most n of them, numbered from idx — to f. The last
// type is the inner loop: the outer digits' throughputs are summed once
// per run of it, in type order, so every total carries eval's bits. It
// returns the next index, and false once f stopped the walk. The walk
// must not reach the all-absent vector.
func (t *genericTable) scoreRun(pick []int, sel []*genOption, lo, hi []int, n, idx uint64, w float64, f *indexFrontier) (uint64, bool) {
	last := len(pick) - 1
	opts := t.opts[last]
	for {
		part := 0.0
		for _, o := range sel[:last] {
			part += o.thr
		}
		for d := pick[last]; d < hi[last]; d++ {
			if n == 0 {
				return idx, true
			}
			o := &opts[d]
			sel[last] = o
			tt, e := score(sel, w, part+o.thr, nil)
			if !f.offer(idx, tt, e) {
				return idx, false
			}
			idx++
			n--
		}
		pick[last] = hi[last] - 1
		if !t.next(pick, sel, lo, hi) {
			return idx, true
		}
	}
}

// scoreFrom offers the n points of the N-type order from serial index
// idx on to f: the start vector is decoded once, the odometer does the
// rest.
func (t *genericTable) scoreFrom(c *genCursor, idx, n uint64, w float64, f *indexFrontier) {
	t.seek(c.pick, c.sel, idx+1)
	t.scoreRun(c.pick, c.sel, c.lo, t.radix, n, idx, w, f)
}

// decode decodes f's N-type survivors into one flat backing.
func (g *GenericTable) decode(c *genCursor, f *indexFrontier, w float64) (ShardFrontier[GenericPoint], error) {
	bk := newGenBacking(f.tr.Len(), g.types)
	return survivors(f, func(idx uint64) GenericPoint {
		g.t.at(c, idx+1, w)
		return bk.copy(c.p)
	})
}

// Frontier streams the space for w work units through an online Pareto
// frontier and returns only its optimal points, exactly as
// GenericFrontierOf does but off the precompiled table.
func (g *GenericTable) Frontier(w float64) ([]GenericPoint, []pareto.TE, error) {
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	c := g.t.newCursor()
	var f indexFrontier
	g.t.scoreFrom(c, 0, g.t.size, w, &f)
	sf, err := g.decode(c, &f, w)
	return sf.Points, sf.TEs, err
}

// FrontierParallel is Frontier fanned out over a worker pool: each
// claimed chunk maintains its own online frontier and the chunk
// frontiers are merged in enumeration order, so the result is identical
// to the serial path (including first-offered-wins among exact
// duplicates). The space is never materialized — at most the per-chunk
// frontiers live at once. workers <= 0 selects GOMAXPROCS.
func (g *GenericTable) FrontierParallel(w float64, workers int) ([]GenericPoint, []pareto.TE, error) {
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	n, err := g.t.intSize()
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	locals := make([]indexFrontier, (n+genericFrontierChunk-1)/genericFrontierChunk)
	err = parallelFor(n, workers, genericFrontierChunk, func(lo, hi int) error {
		// parallelFor claims start at chunk multiples, so lo identifies
		// the chunk's slot in the ordered merge below.
		f := &locals[lo/genericFrontierChunk]
		g.t.scoreFrom(g.t.newCursor(), uint64(lo), uint64(hi-lo), w, f)
		return f.err
	})
	if err != nil {
		return nil, nil, err
	}
	// Chunks cover ascending index runs, so re-offering their survivors
	// chunk by chunk keeps the offers ascending.
	var merged indexFrontier
	for i := range locals {
		_, tes, idxs := locals[i].tr.Frontier()
		for j, te := range tes {
			merged.offer(idxs[j], te.Time, te.Energy)
		}
	}
	sf, err := g.decode(g.t.newCursor(), &merged, w)
	return sf.Points, sf.TEs, err
}

// FrontierShard walks shard sh's slice through an online frontier and
// returns the partial frontier with serial indices. Duplicates resolve
// toward the smallest serial index (not first-offered: the shard walk
// order is permuted), so shard frontiers merge deterministically.
func (g *GenericTable) FrontierShard(w float64, sh shard.Shard) (ShardFrontier[GenericPoint], error) {
	return g.FrontierShardContext(context.Background(), w, sh)
}

// shardPollEvery is how many points a shard walk scores between
// context polls: a poll costs next to nothing beside this many Feistel
// applications, and a cancelled walk stops within well under a
// millisecond.
const shardPollEvery = 1 << 12

// FrontierShardContext is FrontierShard that stops early, returning
// ctx's error, once ctx is done. It polls ctx before its first point
// and then every shardPollEvery points, so a walk whose context was
// cancelled before it started scores nothing.
func (g *GenericTable) FrontierShardContext(ctx context.Context, w float64, sh shard.Shard) (ShardFrontier[GenericPoint], error) {
	if err := g.checkShard(w, sh); err != nil {
		return ShardFrontier[GenericPoint]{}, err
	}
	c := g.t.newCursor()
	var f indexFrontier
	n := 0
	forShard(g.t.size, sh, func(idx uint64) bool {
		if n%shardPollEvery == 0 && ctx.Err() != nil {
			return false
		}
		n++
		g.t.seek(c.pick, c.sel, idx+1)
		tt, e, _ := eval(c.sel, w, nil, nil, nil)
		return f.offer(idx, tt, e)
	})
	if err := ctx.Err(); err != nil {
		return ShardFrontier[GenericPoint]{}, err
	}
	return g.decode(c, &f, w)
}

// frontier score-walks the view in the paper's order and decodes the
// survivors.
func (v *pairView) frontier(w float64) ([]Point, []pareto.TE, error) {
	var f indexFrontier
	var pick [2]int
	var sel [2]*genOption
	idx, ok := uint64(0), true
	for _, b := range v.paperBoxes() {
		if ok && v.first(pick[:], sel[:], b.lo[:], b.hi[:]) {
			idx, ok = v.scoreRun(pick[:], sel[:], b.lo[:], b.hi[:], math.MaxUint64, idx, w, &f)
		}
	}
	sf, err := survivors(&f, func(idx uint64) Point { return v.pointAt(idx, w) })
	return sf.Points, sf.TEs, err
}

// Frontier enumerates the bounded space and returns only its
// Pareto-optimal points, exactly as FrontierOf does but off the
// precomputed table.
func (t *Table) Frontier(maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	if err := checkBounds(maxARM, maxAMD, w); err != nil {
		return nil, nil, err
	}
	return t.view(maxARM, maxAMD).frontier(w)
}

// FrontierOf enumerates the space and returns only its Pareto-optimal
// points, maintained online as the enumeration streams: the full space
// is never materialized, only the current frontier (typically a few
// hundred points). The returned TE slice is the energy-deadline
// frontier in pareto.Frontier's order (time-ascending), with each Index
// pointing into the returned point slice.
func FrontierOf(s Space, maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	v, err := s.enumView(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return v.frontier(w)
}
