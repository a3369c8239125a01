package cluster

import (
	"fmt"
	"unsafe"

	"heteromix/internal/hwsim"
)

// Table is the exported, reusable form of the evaluation-kernel layer
// (kernel.go): both models validated and their per-configuration
// coefficients precomputed once, then shared across any number of
// evaluations, enumerations and frontier queries. Enumerate* rebuilds
// the table on every call, which is right for one-shot experiment
// drivers; a long-lived consumer — the serving daemon memoizes one Table
// per (workload, switch-accounting) pair — builds it once and amortizes
// the model walk across queries. A Table is immutable after construction
// and safe for concurrent use.
type Table struct {
	space          Space
	arm, amd       []kernelEntry
	switchW        float64 // per-switch watts charged to ARM-side energy (0 under NoSwitchEnergy)
	armIdx, amdIdx map[hwsim.Config]int
}

// NewTable precomputes the kernel table for every per-node configuration
// of both specs. Unlike the enumerators, both models are always
// validated — a Table exists to answer arbitrary later queries, either
// side of which may be populated.
func (s Space) NewTable() (*Table, error) {
	t, err := s.table(1, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	t.indexConfigs()
	return &t, nil
}

// indexConfigs builds the config-to-entry maps Evaluate looks up.
func (t *Table) indexConfigs() {
	t.armIdx = make(map[hwsim.Config]int, len(t.arm))
	t.amdIdx = make(map[hwsim.Config]int, len(t.amd))
	for i, e := range t.arm {
		t.armIdx[e.cfg] = i
	}
	for i, e := range t.amd {
		t.amdIdx[e.cfg] = i
	}
}

// Space returns the space the table was built from.
func (t *Table) Space() Space { return t.space }

// Evaluate services w work units on one configuration from the
// precomputed coefficients. It matches Space.Evaluate point for point
// (bit-identical time and split, energy within a few ULPs) at a fraction
// of the cost: bounds checks, two map lookups and the kernel arithmetic,
// with no allocation.
func (t *Table) Evaluate(cfg Configuration, w float64) (Point, error) {
	if err := validWork(w); err != nil {
		return Point{}, err
	}
	if cfg.ARM.Nodes < 0 || cfg.AMD.Nodes < 0 {
		return Point{}, fmt.Errorf("cluster: negative node count in %v", cfg)
	}
	if cfg.ARM.Nodes+cfg.AMD.Nodes == 0 {
		return Point{}, fmt.Errorf("cluster: no nodes in any group")
	}
	var a, d genOption
	if cfg.ARM.Nodes > 0 {
		i, ok := t.armIdx[cfg.ARM.Config]
		if !ok {
			return Point{}, fmt.Errorf("cluster: %v is not a configuration of %s",
				cfg.ARM.Config, t.space.ARM.Spec.Name)
		}
		a = t.arm[i].option(cfg.ARM.Nodes, t.switchW)
	}
	if cfg.AMD.Nodes > 0 {
		i, ok := t.amdIdx[cfg.AMD.Config]
		if !ok {
			return Point{}, fmt.Errorf("cluster: %v is not a configuration of %s",
				cfg.AMD.Config, t.space.AMD.Spec.Name)
		}
		d = t.amd[i].option(cfg.AMD.Nodes, 0)
	}
	sel := [2]*genOption{&a, &d}
	var work [2]float64
	tt, e, _ := eval(sel[:], w, work[:], nil, nil)
	return pairPoint(&sel, &work, tt, e), nil
}

// Size returns how many points ForEach yields for the bounds: every
// (ARM option, AMD option) pair but the all-absent one.
func (t *Table) Size(maxARM, maxAMD int) int {
	return (1+maxARM*len(t.arm))*(1+maxAMD*len(t.amd)) - 1
}

// SizeBytes estimates the table's resident size for cache accounting:
// the kernel-entry arrays and the config-index maps (counted at a flat
// per-entry overhead), plus the struct itself.
func (t *Table) SizeBytes() int {
	const entrySize = int(unsafe.Sizeof(kernelEntry{}))
	// A map entry costs roughly its key+value plus bucket overhead.
	const mapEntry = int(unsafe.Sizeof(hwsim.Config{})) + 8 + 16
	n := int(unsafe.Sizeof(Table{}))
	n += (len(t.arm) + len(t.amd)) * entrySize
	n += (len(t.armIdx) + len(t.amdIdx)) * mapEntry
	return n
}

// ForEach streams every point of the bounded space to yield in
// Enumerate's order; yield returning false stops the walk early (not an
// error).
func (t *Table) ForEach(maxARM, maxAMD int, w float64, yield func(Point) bool) error {
	if err := checkBounds(maxARM, maxAMD, w); err != nil {
		return err
	}
	t.view(maxARM, maxAMD).walk(w, yield)
	return nil
}
