package cluster

import (
	"fmt"
	"math"

	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/units"
)

// This file is the two-type layer: the paper's ARM+AMD Space and Table
// walk an N=2 view of the evaluation kernel (generic_kernel.go), type 0
// ARM and type 1 AMD, built per walk from the Table's kernel entries.
// Only the order is the paper's own: every heterogeneous mix (ARM
// count, ARM config, AMD count, AMD config, nested), then ARM-only, then
// AMD-only — the view's boxes [1,R0)×[1,R1), [1,R0)×{0} and {0}×[1,R1),
// R_i counting type i's options with the absent one. The order is a
// wire contract: a limited /v1/enumerate answer is a prefix of it, and
// shard frontiers break ties by it.
//
// Numerical contract: Point.Time, Point.WorkARM and the work split are
// bit-identical to the direct Space.Evaluate path (the throughput and
// split arithmetic is the same expression over the same TimePerUnit
// values). Point.Energy folds the work volume in after the per-unit
// coefficient instead of before, which agrees with the direct path to
// within a few ULPs (~1e-15 relative); tests assert 1e-12.

// kernelEntry is one per-node configuration's precomputed coefficients.
type kernelEntry struct {
	cfg hwsim.Config
	k   float64 // seconds per work unit on one node
	epu float64 // joules per work unit on one node
}

// option is the entry's choice with n nodes, on a type drawing switchW
// watts per switch.
func (e kernelEntry) option(n int, switchW float64) genOption {
	return newOption(n, e.cfg, e.k, e.epu, switchW)
}

// typeKernels validates nm once and precomputes entries for the given
// configurations (in the given order).
func typeKernels(nm model.NodeModel, cfgs []hwsim.Config) ([]kernelEntry, error) {
	if err := nm.Validate(); err != nil {
		return nil, err
	}
	out := make([]kernelEntry, len(cfgs))
	for i, cfg := range cfgs {
		k, err := nm.KernelFor(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = kernelEntry{cfg: cfg, k: k.TimePerUnit, epu: k.EnergyPerUnit}
	}
	return out, nil
}

// validWork mirrors Evaluate's work-volume check.
func validWork(w float64) error {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("cluster: work must be positive and finite, got %v", w)
	}
	return nil
}

// armSwitches is Group.Switches for the ARM side.
func armSwitches(nodes int) int {
	return (nodes + ARMPortsPerSwitch - 1) / ARMPortsPerSwitch
}

// checkBounds validates a bounded two-type walk's parameters.
func checkBounds(maxARM, maxAMD int, w float64) error {
	if maxARM < 0 || maxAMD < 0 || maxARM+maxAMD == 0 {
		return fmt.Errorf("cluster: invalid space %dx%d", maxARM, maxAMD)
	}
	return validWork(w)
}

// table compiles the kernel entries a walk of the given bounds needs,
// validating each model only if its side of the space is populated (a
// zero bound never touches that model, matching the direct path's
// behaviour for groups with zero nodes). cfgARM/cfgAMD restrict the
// per-node settings; nil selects every configuration of the spec.
func (s Space) table(maxARM, maxAMD int, cfgARM, cfgAMD []hwsim.Config) (Table, error) {
	t := Table{space: s}
	if !s.NoSwitchEnergy {
		t.switchW = float64(SwitchPower)
	}
	var err error
	if maxARM > 0 {
		if cfgARM == nil {
			cfgARM = hwsim.Configs(s.ARM.Spec)
		}
		if t.arm, err = typeKernels(s.ARM, cfgARM); err != nil {
			return Table{}, fmt.Errorf("cluster: ARM kernels: %w", err)
		}
	}
	if maxAMD > 0 {
		if cfgAMD == nil {
			cfgAMD = hwsim.Configs(s.AMD.Spec)
		}
		if t.amd, err = typeKernels(s.AMD, cfgAMD); err != nil {
			return Table{}, fmt.Errorf("cluster: AMD kernels: %w", err)
		}
	}
	return t, nil
}

// enumView is the shared preamble of the Space enumerators.
func (s Space) enumView(maxARM, maxAMD int, w float64, cfgARM, cfgAMD []hwsim.Config) (*pairView, error) {
	if err := checkBounds(maxARM, maxAMD, w); err != nil {
		return nil, err
	}
	t, err := s.table(maxARM, maxAMD, cfgARM, cfgAMD)
	if err != nil {
		return nil, err
	}
	return t.view(maxARM, maxAMD), nil
}

// pairView is the N=2 genericTable of a bounded two-type space plus the
// arrays backing its per-type slices, so a view costs three
// allocations: itself and its two option arrays. Its options carry the
// ARM side's switch draw, so it needs no per-type wattage of its own.
type pairView struct {
	genericTable
	arr struct {
		opts   [2][]genOption
		radix  [2]int
		stride [2]uint64
	}
}

// view builds the view of the (maxARM, maxAMD) space.
func (t *Table) view(maxARM, maxAMD int) *pairView {
	v := &pairView{}
	v.arr.opts = [2][]genOption{typeOptions(t.arm, maxARM, t.switchW), typeOptions(t.amd, maxAMD, 0)}
	v.genericTable = genericTable{opts: v.arr.opts[:]}
	v.shape(v.arr.radix[:], v.arr.stride[:])
	return v
}

// box is the option-index pairs with lo[i] <= pick[i] < hi[i].
type box struct{ lo, hi [2]int }

// paperBoxes is the paper's order.
func (v *pairView) paperBoxes() [3]box {
	r0, r1 := v.radix[0], v.radix[1]
	return [3]box{
		{lo: [2]int{1, 1}, hi: [2]int{r0, r1}},
		{lo: [2]int{1, 0}, hi: [2]int{r0, 1}},
		{lo: [2]int{0, 1}, hi: [2]int{1, r1}},
	}
}

// walk streams the space to yield in the paper's order; yield returning
// false stops it.
func (v *pairView) walk(w float64, yield func(Point) bool) {
	for _, b := range v.paperBoxes() {
		if !v.sweep(b, w, yield) {
			return
		}
	}
}

// sweep streams one box's points, the AMD digit fastest; false if yield
// stopped it.
func (v *pairView) sweep(b box, w float64, yield func(Point) bool) bool {
	var pick [2]int
	var sel [2]*genOption
	var work [2]float64
	for ok := v.first(pick[:], sel[:], b.lo[:], b.hi[:]); ok; ok = v.next(pick[:], sel[:], b.lo[:], b.hi[:]) {
		tt, e, _ := eval(sel[:], w, work[:], nil, nil)
		if !yield(pairPoint(&sel, &work, tt, e)) {
			return false
		}
	}
	return true
}

// collect materializes the walk.
func (v *pairView) collect(w float64) []Point {
	out := make([]Point, 0, v.size)
	v.walk(w, func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out
}

// pointAt evaluates the point at index idx of the paper's order, the
// random access the parallel and frontier-decode paths use.
func (v *pairView) pointAt(idx uint64, w float64) Point {
	sel := v.seek(idx)
	var work [2]float64
	tt, e, _ := eval(sel[:], w, work[:], nil, nil)
	return pairPoint(&sel, &work, tt, e)
}

// seek picks the options of the point at index idx of the paper's
// order: idx is remapped into paperBoxes' boxes (mixes, then ARM-only,
// then AMD-only).
func (v *pairView) seek(idx uint64) [2]*genOption {
	r0, r1 := uint64(v.radix[0]-1), uint64(v.radix[1]-1) // present options per type
	var p0, p1 uint64
	switch mixed := r0 * r1; {
	case idx < mixed:
		p0, p1 = 1+idx/r1, 1+idx%r1
	case idx < mixed+r0:
		p0 = 1 + idx - mixed
	default:
		p1 = 1 + idx - mixed - r0
	}
	return [2]*genOption{&v.opts[0][p0], &v.opts[1][p1]}
}

// paperIndex is seek's inverse: the paper-order index of the point at
// vector vec (p0·R1 + p1) of the view's N-type order.
func (v *pairView) paperIndex(vec uint64) uint64 {
	r0, r1 := uint64(v.radix[0]-1), uint64(v.radix[1]-1)
	p0, p1 := vec/(r1+1), vec%(r1+1)
	switch {
	case p0 > 0 && p1 > 0:
		return (p0-1)*r1 + p1 - 1
	case p1 == 0:
		return r0*r1 + p0 - 1
	default:
		return r0*r1 + r0 + p1 - 1
	}
}

// pairPoint decodes the Point of the picked (ARM, AMD) options straight
// from them and from eval's results (an absent option has a zero
// config).
func pairPoint(sel *[2]*genOption, work *[2]float64, tt, energy float64) Point {
	workARM := 0.0
	if tot := work[0] + work[1]; tot > 0 {
		workARM = work[0] / tot
	}
	return Point{
		Config: Configuration{
			ARM: TypeConfig{Nodes: sel[0].count, Config: sel[0].cfg},
			AMD: TypeConfig{Nodes: sel[1].count, Config: sel[1].cfg},
		},
		Time:    units.Seconds(tt),
		Energy:  units.Joule(energy),
		WorkARM: workARM,
	}
}
