package cluster

import (
	"context"
	"slices"

	"heteromix/internal/pareto"
	"heteromix/internal/shard"
)

// This file is the score path under every frontier. Only (T, E) decide
// whether a point joins the energy-deadline frontier, and only the
// space's frontier candidates (candidates.go) can, so a frontier answer
// scores those alone: it offers (serial index, T, E) for each, in
// ascending serial index, to a frontier that keeps indices only, and
// then decodes the survivors through the random-access at (N-type) or
// pointAt (the paper-order two-type view). A serial index is a point's
// 0-based position in its enumeration order; the N-type order's index s
// is mixed-radix vector s+1, past the all-absent vector 0. The frontier
// keeps the smallest index among exact (T, E) duplicates, which is
// first-offered-wins for the ascending candidate offers and the serial
// walks, and makes the permuted shard walks merge deterministically.

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

// scoreCandidates offers each candidate of idx, in ascending serial
// index, to f, scored on the options pick selects for it, until f
// stops.
func scoreCandidates(f *indexFrontier, idx []uint64, w float64, pick func(idx uint64) []*genOption) {
	for _, i := range idx {
		tt, e, _ := eval(pick(i), w, nil, nil, nil)
		if !f.offer(i, tt, e) {
			return
		}
	}
}

// decode decodes f's N-type survivors into one flat backing.
func (g *GenericTable) decode(c *genCursor, f *indexFrontier, w float64) (ShardFrontier[GenericPoint], error) {
	bk := newGenBacking(f.tr.Len(), g.types)
	return survivors(f, func(idx uint64) GenericPoint {
		g.t.at(c, idx+1, w)
		return bk.copy(c.p)
	})
}

// Frontier returns the space's Pareto-optimal points for w work units,
// exactly as GenericFrontierOf does but off the precompiled table: it
// scores the table's frontier candidates (folding them first unless
// WithCandidates did) and decodes only the survivors.
func (g *GenericTable) Frontier(w float64) ([]GenericPoint, []pareto.TE, error) {
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	sc := foldPool.Get().(*foldScratch)
	defer foldPool.Put(sc)
	cs := g.candidates(sc)
	c := g.t.newCursor()
	var f indexFrontier
	if cs.covers(w) {
		scoreCandidates(&f, cs.idx, w, func(idx uint64) []*genOption {
			g.t.seek(c.pick, c.sel, idx+1)
			return c.sel
		})
	} else {
		idx := uint64(0)
		g.t.forEach(c, w, func(p GenericPoint) bool {
			idx++
			return f.offer(idx-1, float64(p.Time), float64(p.Energy))
		})
	}
	sf, err := g.decode(c, &f, w)
	return sf.Points, sf.TEs, err
}

// FrontierParallel is Frontier, kept for callers of the former
// fanned-out walk: scoring the candidates takes microseconds, so workers
// is ignored.
func (g *GenericTable) FrontierParallel(w float64, workers int) ([]GenericPoint, []pareto.TE, error) {
	return g.Frontier(w)
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

// frontier folds the view's frontier candidates into pooled buffers,
// scores them in the paper's order and decodes the survivors.
func (v *pairView) frontier(w float64) ([]Point, []pareto.TE, error) {
	sc := foldPool.Get().(*foldScratch)
	defer foldPool.Put(sc)
	cs := v.candidates(sc)
	var f indexFrontier
	if cs.covers(w) {
		var sel [2]*genOption
		scoreCandidates(&f, cs.idx, w, func(idx uint64) []*genOption {
			sel = v.seek(idx)
			return sel[:]
		})
	} else {
		idx := uint64(0)
		v.walk(w, func(p Point) bool {
			idx++
			return f.offer(idx-1, float64(p.Time), float64(p.Energy))
		})
	}
	sf, err := survivors(&f, func(idx uint64) Point { return v.pointAt(idx, w) })
	return sf.Points, sf.TEs, err
}

// Frontier returns only the bounded space's Pareto-optimal points,
// exactly as FrontierOf does but off the precomputed table.
func (t *Table) Frontier(maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	if err := checkBounds(maxARM, maxAMD, w); err != nil {
		return nil, nil, err
	}
	return t.view(maxARM, maxAMD).frontier(w)
}

// FrontierOf returns only the space's Pareto-optimal points: it folds
// the space's frontier candidates (typically tens of points) and scores
// them alone, so the space is never walked, let alone materialized. The
// returned TE slice is the energy-deadline
// frontier in pareto.Frontier's order (time-ascending), with each Index
// pointing into the returned point slice.
func FrontierOf(s Space, maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	v, err := s.enumView(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return v.frontier(w)
}
