package cluster

import (
	"fmt"
	"math"

	"heteromix/internal/hwsim"
	"heteromix/internal/units"
)

// This file is the evaluation-kernel layer under every enumerator, the
// N-type one and the paper's two-type one alike. A genericTable is built
// once per cluster spec (type list): every (count, per-node
// configuration) option of every type gets its model.Kernel
// coefficients precomputed, so evaluating one point of the cartesian
// space is pure float arithmetic over scratch buffers — no validation,
// no model walks, and no allocation. All error paths (model validation,
// bad bounds) are taken during table construction; the work volume
// enters only the per-point arithmetic, so one table serves every work
// size (validated per call) and per-point evaluation is infallible.
//
// score is the one arithmetic that turns coefficients into (T, E, split):
// eval runs it for the materializing walks, and the frontier paths
// (frontier.go) run it alone, computing no point at all until a survivor
// is decoded; cluster.Evaluate is the independent reference tests
// compare it with. first/next are the one odometer, over any box of
// per-type [lo, hi) option bounds: the N-type walk is the full box minus
// the all-absent vector, and the two-type Space and Table (kernel.go)
// walk an N=2 view as the paper's three boxes.

// genOption is one (count, per-node configuration) choice of a type;
// count 0 is the absent option and carries no kernel (all zero).
type genOption struct {
	count int
	cfg   hwsim.Config
	k     float64 // seconds per work unit on one node
	epu   float64 // joules per work unit on one node
	thr   float64 // count/k: the option's throughput in work units per second
	swW   float64 // switch watts × switches: the option's switch draw
}

// newOption is the one constructor of a present option, from its
// compiled (or restored) coefficients and its type's per-switch watts:
// it fixes the per-point constants score reads, with the same
// expressions the per-point arithmetic would evaluate.
func newOption(count int, cfg hwsim.Config, k, epu, switchW float64) genOption {
	return genOption{
		count: count, cfg: cfg, k: k, epu: epu,
		thr: float64(count) / k,
		swW: switchW * float64(armSwitches(count)),
	}
}

// genericTable is the precomputed evaluation table of an N-type space.
// It is independent of the work volume: w is a per-call parameter of
// eval/forEach/at, so one table serves every work size.
type genericTable struct {
	opts    [][]genOption // per type: absent first, then count-major options
	switchW []float64     // per type: per-switch watts (0 unless NeedsSwitch)
	radix   []int         // len(opts[i])
	stride  []uint64      // mixed-radix stride of type i (type 0 slowest)
	size    uint64        // points in the space (product of radixes - 1), saturated
}

// satMul multiplies saturating at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// satAdd adds saturating at math.MaxUint64.
func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// typeConfigs returns the per-node configurations enumerated for gt:
// its explicit restriction when set (e.g. from PruneGroupTypes), every
// configuration of the spec otherwise.
func typeConfigs(gt GroupType) []hwsim.Config {
	if gt.Configs != nil {
		return gt.Configs
	}
	return hwsim.Configs(gt.Model.Spec)
}

// typeOptions lists one type's options: absent, then count-major.
func typeOptions(entries []kernelEntry, maxNodes int, switchW float64) []genOption {
	opts := make([]genOption, 1, 1+max(maxNodes, 0)*len(entries))
	for n := 1; n <= maxNodes; n++ {
		for _, e := range entries {
			opts = append(opts, e.option(n, switchW))
		}
	}
	return opts
}

// shape fills radix, stride (one slot per type) and size from t.opts.
func (t *genericTable) shape(radix []int, stride []uint64) {
	t.radix, t.stride = radix, stride
	prod := uint64(1)
	for i := len(t.opts) - 1; i >= 0; i-- {
		radix[i] = len(t.opts[i])
		stride[i] = prod
		prod = satMul(prod, uint64(radix[i]))
	}
	t.size = prod
	if t.size != math.MaxUint64 {
		t.size-- // the all-absent vector is never yielded
	}
}

// newGenericTable validates types and precomputes every option's
// kernel coefficients. Types with MaxNodes 0 are never evaluated, so
// their models are not touched (matching Evaluate's treatment of
// zero-node groups).
func newGenericTable(types []GroupType) (*genericTable, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("cluster: no node types")
	}
	for i, gt := range types {
		if gt.MaxNodes < 0 {
			return nil, fmt.Errorf("cluster: type %d has MaxNodes %d", i, gt.MaxNodes)
		}
	}
	t := &genericTable{
		opts:    make([][]genOption, len(types)),
		switchW: make([]float64, len(types)),
	}
	for i, gt := range types {
		var entries []kernelEntry
		if gt.MaxNodes > 0 {
			var err error
			if entries, err = typeKernels(gt.Model, typeConfigs(gt)); err != nil {
				return nil, fmt.Errorf("cluster: type %d: %w", i, err)
			}
		}
		if gt.NeedsSwitch {
			t.switchW[i] = float64(SwitchPower)
		}
		t.opts[i] = typeOptions(entries, gt.MaxNodes, t.switchW[i])
	}
	t.shape(make([]int, len(types)), make([]uint64, len(types)))
	return t, nil
}

// maxMaterialize bounds the point count the materializing enumerators
// accept; beyond it callers must stream (EnumerateGroupsFunc) or prune.
const maxMaterialize = 1 << 31

// intSize returns the space size as an int for the materializing and
// index-addressed paths.
func (t *genericTable) intSize() (int, error) {
	if t.size > maxMaterialize {
		return 0, fmt.Errorf("cluster: generic space of %d points is too large to materialize; prune or stream with EnumerateGroupsFunc", t.size)
	}
	return int(t.size), nil
}

// eval predicts w work units on the picked options sel (one per type,
// count 0 absent): their throughputs summed in type order, then score.
// It fills work (each type's share), counts and configs when given; the
// two-type view passes nil counts and decodes its Point from sel. ok is
// false only when every type is absent.
func eval(sel []*genOption, w float64, work []float64, counts []int, configs []hwsim.Config) (tt, energy float64, ok bool) {
	total := 0.0
	for i, o := range sel {
		if counts != nil {
			counts[i] = o.count
			configs[i] = o.cfg
		}
		// An absent option adds +0, which leaves the sum's bits alone.
		total += o.thr
	}
	if total == 0 {
		return 0, 0, false
	}
	tt, energy = score(sel, w, total, work)
	return tt, energy, true
}

// score is the matching split of Eq. 1 and the energy of Eq. 4 for the
// picked options whose throughputs n/k sum (in type order) to total > 0:
// every group finishes at T = w / total, and the energy sums, in type
// order, each present type's share w·thr/total at its per-unit energy
// plus its switch draw over T. work, when given, receives each type's
// share (0 when absent). The order of every operation is fixed: the
// walks' bit identity rests on it, so do not reassociate.
func score(sel []*genOption, w, total float64, work []float64) (tt, energy float64) {
	tt = w / total
	for i, o := range sel {
		wk := 0.0
		if o.count > 0 {
			wk = w * o.thr / total
			e := o.epu * wk
			if o.swW > 0 {
				e += o.swW * tt
			}
			energy += e
		}
		if work != nil {
			work[i] = wk
		}
	}
	return tt, energy
}

// first sets the odometer to box [lo, hi)'s first vector (pick holds
// option indices, sel the picked options); false for an empty box.
func (t *genericTable) first(pick []int, sel []*genOption, lo, hi []int) bool {
	for i := range pick {
		if lo[i] >= hi[i] {
			return false
		}
		pick[i] = lo[i]
		sel[i] = &t.opts[i][lo[i]]
	}
	return true
}

// next advances to the box's next vector, the last type fastest; false
// past its end.
func (t *genericTable) next(pick []int, sel []*genOption, lo, hi []int) bool {
	for i := len(pick) - 1; i >= 0; i-- {
		if pick[i]++; pick[i] < hi[i] {
			sel[i] = &t.opts[i][pick[i]]
			return true
		}
		pick[i] = lo[i]
		sel[i] = &t.opts[i][lo[i]]
	}
	return false
}

// genCursor is one N-type walker's scratch: the odometer state and a
// point whose slices are reused across evaluations.
type genCursor struct {
	t    *genericTable
	lo   []int // the full box's lower corner: all zeros
	pick []int
	sel  []*genOption
	p    GenericPoint
}

func (t *genericTable) newCursor() *genCursor {
	n := len(t.opts)
	digits := make([]int, 2*n)
	return &genCursor{
		t:    t,
		lo:   digits[:n:n],
		pick: digits[n:],
		sel:  make([]*genOption, n),
		p: GenericPoint{
			Counts:  make([]int, n),
			Configs: make([]hwsim.Config, n),
			Work:    make([]float64, n),
		},
	}
}

// load evaluates the picked options into c.p; false for all-absent.
func (c *genCursor) load(w float64) bool {
	tt, e, ok := eval(c.sel, w, c.p.Work, c.p.Counts, c.p.Configs)
	c.p.Time, c.p.Energy = units.Seconds(tt), units.Joule(e)
	return ok
}

// forEach streams every point of the space to yield in enumeration
// order (type 0's options slowest, the last type's fastest — the order
// EnumerateGroups materializes). The yielded point is c's scratch:
// valid only during the call. Reports whether the
// walk ran to completion.
func (t *genericTable) forEach(c *genCursor, w float64, yield func(GenericPoint) bool) bool {
	for ok := t.first(c.pick, c.sel, c.lo, t.radix); ok; ok = t.next(c.pick, c.sel, c.lo, t.radix) {
		if c.load(w) && !yield(c.p) {
			return false
		}
	}
	return true
}

// at evaluates the point at linear index idx of forEach's order into
// c's scratch (idx 1..size; index 0 is the all-absent vector) — the
// random-access view the parallel, shard and frontier-decode paths use.
func (t *genericTable) at(c *genCursor, idx uint64, w float64) bool {
	t.seek(c.pick, c.sel, idx)
	return c.load(w)
}

// seek sets the odometer to the full box's vector at linear index idx.
func (t *genericTable) seek(pick []int, sel []*genOption, idx uint64) {
	for i := range sel {
		pick[i] = int(idx / t.stride[i] % uint64(t.radix[i]))
		sel[i] = &t.opts[i][pick[i]]
	}
}

// genBacking carves materialized points' slices out of three flat
// arrays — one allocation per array for the whole batch instead of
// three per point.
type genBacking struct {
	counts  []int
	configs []hwsim.Config
	work    []float64
	types   int
}

func newGenBacking(n, types int) *genBacking {
	return &genBacking{
		counts:  make([]int, n*types),
		configs: make([]hwsim.Config, n*types),
		work:    make([]float64, n*types),
		types:   types,
	}
}

// copy clones p into the next backing row.
func (b *genBacking) copy(p GenericPoint) GenericPoint {
	k := b.types
	q := GenericPoint{
		Counts:  b.counts[:k:k],
		Configs: b.configs[:k:k],
		Work:    b.work[:k:k],
		Time:    p.Time,
		Energy:  p.Energy,
	}
	b.counts, b.configs, b.work = b.counts[k:], b.configs[k:], b.work[k:]
	copy(q.Counts, p.Counts)
	copy(q.Configs, p.Configs)
	copy(q.Work, p.Work)
	return q
}
