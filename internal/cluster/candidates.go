package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Frontier candidates: the configuration-space reduction the paper
// leaves open (§IV-B). The model is additive in two per-option
// quantities, throughput x = count/k and power y = epu·x + switch draw:
// a point's totals X = Σx and Y = Σy give T = w/X and E = w·Y/X. Split
// a point into a partial sum p over some types and a completion r over
// the others, whose throughput is at most R (the others' largest x,
// summed). If another partial sum q over the same types has Xq ≥ Xp and
// key Yq/(Xq+R) ≤ Yp/(Xp+R), then q+r is at least as fast and as cheap
// as p+r for every r and every w: the energy gap (Yp+Yr)(Xq+Xr) −
// (Yq+Yr)(Xp+Xr) is linear in Xr, non-negative at Xr = R by the key and
// at Xr = 0 since there it is at least Yp·R(Xq−Xp)/(Xp+R), and Yr adds
// Yr(Xq−Xp) ≥ 0. Larger X with smaller Y always qualifies; with R = 0
// the key is E/w, so the last step keeps about the (T, E) frontier.
// fold runs this type by type: it keeps the options of each type that
// no other option of the type beats (R = every other type), sums them
// with the kept partial sums so far, and keeps the sums no other sum
// beats (R = the types still to come). Neither x nor y depends on w, so
// one fold serves every work volume. A frontier answer scores only the
// candidates, in ascending serial index, with the walks' own score, and
// offers them to the same TrackedIndexed: it is bit for bit the answer
// of scoring every point. prune.go's per-configuration (k, P) pruning
// is the single-count case of the same argument.
//
// Rounding bound. score rounds X, each type's share and E in a fixed
// order, so a point that is dominated algebraically can tie with its
// dominator, or beat it, in float. Let u = 2^-53, γ(n) = n·u/(1-n·u), N
// the number of types, X and Y a point's exact totals over the stored
// coefficients and Xm the largest attainable X (each type's largest x,
// summed). While every intermediate is a normal float, score's N-term
// sum, its division and its per-type energy terms give T̂ = (w/X)(1+θ)
// and Ê = (w·Y/X)(1+φ) with |θ| ≤ γ(N) and |φ| ≤ γ(2N+2). So q+r scores
// strictly better than p+r on both axes, and is no exact duplicate of
// it, once their X gap exceeds 2γ(N)·Xm and their E gap exceeds
// 2γ(2N+2) relative. fold's float totals lie within γ(N+1) of the exact
// ones, relative, and its keys within γ(2N+4). It drops p only when
// some q beats it by m·Xm on x and by the factor 1−m on the key at
// once, m = 16(N+1)·u: the exact X gap is then at least 14(N+1)u·Xm,
// and the linear bound above, carried through with the margins less the
// rounding, keeps E's relative gap above 8(N+1)u for every completion.
// Near-ties within the margins are all kept. The bound needs normal
// intermediates: every present option's x, epu and nonzero switch draw
// in [2^-100, 2^100] and w in [2^-500, 2^500] keep all of them within
// [2^-900, 2^800]. Outside that range, or when the fold outgrows
// maxFoldSums, a frontier scores every point instead.

// maxFoldSums bounds one fold step's work, the kept partial sums times
// the next type's kept options: far above what the served workloads
// form (about 7k sums for a 12x12 memcached view), so only a degenerate
// model, whose keys do not thin the sums, gives up and walks the space
// instead.
const maxFoldSums = 1 << 18

// foldSum is one partial sum of the fold: its throughput and power
// totals and its mixed-radix vector over the types folded so far.
type foldSum struct {
	x, y float64
	vec  uint64
}

// foldScratch is one fold's buffers, pooled: a table build or a two-type
// frontier call reuses them instead of allocating per step.
type foldScratch struct {
	cur, next, opts, front, run, merged []foldSum
	mx, rest                            []float64
	idx                                 []uint64
}

var foldPool = sync.Pool{New: func() any { return new(foldScratch) }}

// candidateSet is a space's frontier candidates: the serial indices of
// the points the fold kept, ascending. ok is false when the rounding
// bound does not cover the table's coefficients or the fold gave up;
// then frontiers score every point.
type candidateSet struct {
	idx []uint64
	ok  bool
}

// covers reports whether the candidates hold every survivor for w.
func (cs *candidateSet) covers(w float64) bool { return cs.ok && boundedWork(w) }

// boundedWork reports whether w lies in the range the rounding bound
// assumes.
func boundedWork(w float64) bool { return w >= 0x1p-500 && w <= 0x1p500 }

// inBound reports whether a positive coefficient lies in the range the
// rounding bound assumes.
func inBound(v float64) bool { return v >= 0x1p-100 && v <= 0x1p100 }

// power is an option's y: its energy per second of the job's duration.
func power(o *genOption) float64 { return o.epu*o.thr + o.swW }

// fold computes t's candidate serial indices into sc.idx, ascending,
// and reports whether they may be used (see candidateSet.ok).
func (t *genericTable) fold(sc *foldScratch) bool {
	sc.idx = sc.idx[:0]
	if t.size == 0 || t.size == math.MaxUint64 {
		return false // no point, or vectors that would not fit an index
	}
	// mx[i] is type i's largest throughput; rest[i] sums mx[i:], so
	// rest[0] is the largest total. Sums, not differences: a difference
	// of totals would round far more than R may.
	n := len(t.opts)
	mx := slices.Grow(sc.mx[:0], n)[:n]
	rest := slices.Grow(sc.rest[:0], n+1)[:n+1]
	sc.mx, sc.rest = mx, rest
	for i, opts := range t.opts {
		mx[i] = 0
		for d := 1; d < len(opts); d++ {
			o := &opts[d]
			if !inBound(o.thr) || !inBound(o.epu) || (o.swW != 0 && !inBound(o.swW)) {
				return false
			}
			mx[i] = max(mx[i], o.thr)
		}
	}
	rest[n] = 0
	for i := n - 1; i >= 0; i-- {
		rest[i] = mx[i] + rest[i+1]
	}
	m := float64(16*(n+1)) * 0x1p-53
	dx := m * rest[0]

	cur := append(sc.cur[:0], foldSum{})
	done := 0.0 // mx summed over the types folded so far
	for i, opts := range t.opts {
		sc.opts = sc.opts[:0]
		for d := range opts {
			o := &opts[d]
			sc.opts = append(sc.opts, foldSum{o.thr, power(o), uint64(d) * t.stride[i]})
		}
		slices.SortFunc(sc.opts, func(a, b foldSum) int { return cmp.Compare(b.x, a.x) })
		// An option's completions are the other types' choices.
		sc.front = keepFrontier(sc.front[:0], sc.opts, dx, m, done+rest[i+1])
		done += mx[i]
		if len(cur)*len(sc.front) > maxFoldSums {
			sc.cur = cur
			return false
		}
		// Sum cur with one option at a time and fold the sums into the
		// frontier of those so far: cur is sorted by x descending and
		// float addition is monotone, so each option's shifted copy of
		// cur is a sorted run, and a sum beaten by a dropped sum is also
		// beaten by the sum that beat that one.
		next := sc.next[:0]
		for _, f := range sc.front {
			run := sc.run[:0]
			for _, c := range cur {
				run = append(run, foldSum{c.x + f.x, c.y + f.y, c.vec + f.vec})
			}
			sc.run = run
			sc.merged = mergeByX(sc.merged[:0], next, run)
			next = keepFrontier(next[:0], sc.merged, dx, m, rest[i+1])
		}
		cur, sc.next = next, cur
	}
	for _, c := range cur {
		if c.vec != 0 { // the all-absent vector is no point
			sc.idx = append(sc.idx, c.vec-1)
		}
	}
	sc.cur = cur
	slices.Sort(sc.idx)
	return true
}

// keepFrontier appends to out, in order, the sums of in (sorted by x
// descending) that no sum of in beats at once by dx on x and by the
// factor 1-m on the key y/(x+rest), where rest bounds the throughput a
// completion can add. A NaN key, the all-absent sum's once nothing
// remains to add, is dropped.
func keepFrontier(out, in []foldSum, dx, m, rest float64) []foldSum {
	j, minKey := 0, math.Inf(1) // minKey: least key of in[:j], every sum with x ≥ p.x+dx
	for _, p := range in {
		for j < len(in) && in[j].x >= p.x+dx {
			minKey = min(minKey, in[j].y/(in[j].x+rest))
			j++
		}
		if minKey > p.y/(p.x+rest)*(1-m) {
			out = append(out, p)
		}
	}
	return out
}

// mergeByX appends to out the merge of a and b, each sorted by x
// descending.
func mergeByX(out, a, b []foldSum) []foldSum {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].x > a[i].x {
			out, j = append(out, b[j]), j+1
		} else {
			out, i = append(out, a[i]), i+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// candidates returns g's prebuilt candidate set, or else one folded into
// sc, valid while sc is.
func (g *GenericTable) candidates(sc *foldScratch) candidateSet {
	if g.cands != nil {
		return *g.cands
	}
	ok := g.t.fold(sc)
	return candidateSet{idx: sc.idx, ok: ok}
}

// candidates folds the view's frontier candidates into sc as
// paper-order indices, ascending.
func (v *pairView) candidates(sc *foldScratch) candidateSet {
	cs := candidateSet{ok: v.fold(sc)}
	if cs.ok {
		for i, vec := range sc.idx {
			sc.idx[i] = v.paperIndex(vec + 1)
		}
		slices.Sort(sc.idx)
		cs.idx = sc.idx
	}
	return cs
}
