package cluster

import (
	"fmt"
	"math"

	"heteromix/internal/hwsim"
	"heteromix/internal/units"
)

// This file is the evaluation-kernel layer under the generic N-type
// enumerators, the analogue of spaceKernels for any number of node
// types. A genericTable is built once per cluster spec (type list):
// every (count, per-node configuration) option of every type gets its
// model.Kernel coefficients precomputed, so evaluating one point of the
// cartesian space is pure float arithmetic over scratch buffers — no
// validation, no model walks, and no allocation. All error paths
// (model validation, bad bounds) are taken during table construction;
// the work volume enters only the per-point arithmetic, so one table
// serves every work size (validated per call) and per-point evaluation
// is infallible.
//
// The point arithmetic is expression-for-expression the same as the
// two-type spaceKernels.point (throughputs accumulate in type order,
// work[i] = w·thr[i]/total, energies accumulate in type order), so a
// two-type generic space yields the same points as Space.Enumerate, bit
// for bit. TestGenericTwoTypeMatchesSpace pins this: the two
// enumerations' (time, energy) multisets must match exactly, on a 2x2
// space and on the paper's 10x10 space (36,380 points).

// genOption is one (count, per-node configuration) choice of a type;
// count 0 is the absent option and carries no kernel.
type genOption struct {
	count int
	cfg   hwsim.Config
	k     float64 // seconds per work unit on one node
	epu   float64 // joules per work unit on one node
}

// genericTable is the precomputed evaluation table of an N-type space.
// It is independent of the work volume: w is a per-call parameter of
// eval/forEach/at, so one table serves every work size.
type genericTable struct {
	opts    [][]genOption // per type: absent first, then count-major options
	switchW []float64     // per type: per-switch watts (0 unless NeedsSwitch)
	radix   []uint64      // len(opts[i])
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
		radix:   make([]uint64, len(types)),
		stride:  make([]uint64, len(types)),
	}
	for i, gt := range types {
		opts := []genOption{{count: 0}}
		if gt.MaxNodes > 0 {
			entries, err := typeKernels(gt.Model, typeConfigs(gt))
			if err != nil {
				return nil, fmt.Errorf("cluster: type %d: %w", i, err)
			}
			for n := 1; n <= gt.MaxNodes; n++ {
				for _, k := range entries {
					opts = append(opts, genOption{count: n, cfg: k.cfg, k: k.k, epu: k.epu})
				}
			}
		}
		t.opts[i] = opts
		t.radix[i] = uint64(len(opts))
		if gt.NeedsSwitch {
			t.switchW[i] = float64(SwitchPower)
		}
	}
	prod := uint64(1)
	for i := len(types) - 1; i >= 0; i-- {
		t.stride[i] = prod
		prod = satMul(prod, t.radix[i])
	}
	t.size = prod
	if t.size != math.MaxUint64 {
		t.size-- // the all-absent vector is never yielded
	}
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

// genCursor is one walker's scratch: an option-index vector and a point
// whose slices are reused across evaluations.
type genCursor struct {
	t    *genericTable
	pick []int
	p    GenericPoint
}

func (t *genericTable) newCursor() *genCursor {
	n := len(t.opts)
	return &genCursor{
		t:    t,
		pick: make([]int, n),
		p: GenericPoint{
			Counts:  make([]int, n),
			Configs: make([]hwsim.Config, n),
			Work:    make([]float64, n),
		},
	}
}

// eval fills p from the option picks for w work units: the matching
// split (throughputs accumulate in type order, every group finishes at
// w / Σ thr), then the summed group energies including switch draw over
// the duration. It reports false only for the all-absent vector. p.Work
// doubles as the throughput scratch, so eval needs no allocation.
func (t *genericTable) eval(pick []int, w float64, p *GenericPoint) bool {
	total := 0.0
	for i, oi := range pick {
		opt := &t.opts[i][oi]
		p.Counts[i] = opt.count
		p.Configs[i] = opt.cfg
		thr := 0.0
		if opt.count > 0 {
			thr = float64(opt.count) / opt.k
			total += thr
		}
		p.Work[i] = thr
	}
	if total == 0 {
		return false
	}
	tt := w / total
	energy := 0.0
	for i, oi := range pick {
		if p.Counts[i] == 0 {
			continue
		}
		opt := &t.opts[i][oi]
		wk := w * p.Work[i] / total
		p.Work[i] = wk
		e := opt.epu * wk
		if t.switchW[i] > 0 {
			e += t.switchW[i] * float64(armSwitches(p.Counts[i])) * tt
		}
		energy += e
	}
	p.Time = units.Seconds(tt)
	p.Energy = units.Joule(energy)
	return true
}

// forEach streams every point of the space to yield in enumeration
// order (type 0's options slowest, the last type's fastest — the order
// EnumerateGroups materializes). The yielded point is c's scratch:
// valid only during the call, Clone to retain. Reports whether the
// walk ran to completion.
func (t *genericTable) forEach(c *genCursor, w float64, yield func(GenericPoint) bool) bool {
	pick := c.pick
	for i := range pick {
		pick[i] = 0
	}
	for {
		// Mixed-radix odometer, last digit fastest; starting from the
		// all-zero (all-absent) vector means the first increment lands on
		// the first real point.
		i := len(pick) - 1
		for i >= 0 {
			pick[i]++
			if uint64(pick[i]) < t.radix[i] {
				break
			}
			pick[i] = 0
			i--
		}
		if i < 0 {
			return true
		}
		if !t.eval(pick, w, &c.p) {
			continue
		}
		if !yield(c.p) {
			return false
		}
	}
}

// at evaluates the point at linear index idx of forEach's order into
// c's scratch (idx 1..size; index 0 is the all-absent vector) — the
// random-access view the dynamic parallel scheduler uses.
func (t *genericTable) at(c *genCursor, idx uint64, w float64) bool {
	for i := range c.pick {
		c.pick[i] = int(idx / t.stride[i] % t.radix[i])
	}
	return t.eval(c.pick, w, &c.p)
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
