package cluster

// Compiled-table dumps: the serialized form of the evaluation-kernel
// layer, the payload internal/snapshot packs into its binary cold-start
// format. A dump carries the *compiled* coefficients — every float as
// its raw IEEE-754 bit pattern — so a restored table is bit-identical
// to the one that was dumped: no model walk, no refit, no float
// formatting round trip. Restoring therefore skips exactly the work a
// cold start pays (the per-configuration model walk of NewTable /
// NewGenericTable) and keeps the serving daemon's merge and cache
// bit-identity guarantees intact across a reboot.
//
// Dumps deliberately do not embed models or node specs: the consumer
// validates provenance out of band (the snapshot format binds a dump to
// a profile content hash and build identity) and supplies the Space for
// the two-type restore itself. Restore constructors validate structure
// (finite, positive time coefficients; sane counts) so a corrupted dump
// yields an error, never a table that divides by zero mid-walk.

import (
	"fmt"
	"math"

	"heteromix/internal/hwsim"
	"heteromix/internal/units"
)

// KernelEntryDump is one per-node configuration's compiled coefficients
// in wire form. The float fields are IEEE-754 bit patterns
// (math.Float64bits), so a dump/restore round trip is bit-exact.
type KernelEntryDump struct {
	Cores         int
	FrequencyBits uint64 // hwsim.Config.Frequency (units.Hertz) bits
	TimeBits      uint64 // seconds per work unit on one node
	EnergyBits    uint64 // joules per work unit on one node
}

// TableDump is the compiled state of a two-type Table.
type TableDump struct {
	ARM, AMD []KernelEntryDump
	// SwitchWBits is the per-switch wattage charged to ARM-side energy
	// (bits of 0 under NoSwitchEnergy).
	SwitchWBits uint64
}

// Dump exports the table's compiled coefficients.
func (t *Table) Dump() TableDump {
	return TableDump{
		ARM:         dumpKernelEntries(t.arm),
		AMD:         dumpKernelEntries(t.amd),
		SwitchWBits: math.Float64bits(t.switchW),
	}
}

func dumpKernelEntries(entries []kernelEntry) []KernelEntryDump {
	out := make([]KernelEntryDump, len(entries))
	for i, e := range entries {
		out[i] = KernelEntryDump{
			Cores:         e.cfg.Cores,
			FrequencyBits: math.Float64bits(float64(e.cfg.Frequency)),
			TimeBits:      math.Float64bits(e.k),
			EnergyBits:    math.Float64bits(e.epu),
		}
	}
	return out
}

// validKernelDump rejects coefficients the evaluation arithmetic cannot
// take: k is a divisor, so it must be positive and finite; epu and
// cores must be non-negative.
func validKernelDump(side string, i int, d KernelEntryDump) error {
	k := math.Float64frombits(d.TimeBits)
	if !(k > 0) || math.IsInf(k, 0) {
		return fmt.Errorf("cluster: %s dump entry %d: time coefficient %v must be positive and finite", side, i, k)
	}
	epu := math.Float64frombits(d.EnergyBits)
	if math.IsNaN(epu) || math.IsInf(epu, 0) || epu < 0 {
		return fmt.Errorf("cluster: %s dump entry %d: energy coefficient %v must be non-negative and finite", side, i, epu)
	}
	if d.Cores < 1 {
		return fmt.Errorf("cluster: %s dump entry %d: cores %d must be positive", side, i, d.Cores)
	}
	f := math.Float64frombits(d.FrequencyBits)
	if !(f > 0) || math.IsInf(f, 0) {
		return fmt.Errorf("cluster: %s dump entry %d: frequency %v must be positive and finite", side, i, f)
	}
	return nil
}

func restoreKernelEntries(side string, dumps []KernelEntryDump) ([]kernelEntry, error) {
	if len(dumps) == 0 {
		return nil, nil
	}
	out := make([]kernelEntry, len(dumps))
	for i, d := range dumps {
		if err := validKernelDump(side, i, d); err != nil {
			return nil, err
		}
		out[i] = kernelEntry{
			cfg: hwsim.Config{Cores: d.Cores, Frequency: units.Hertz(math.Float64frombits(d.FrequencyBits))},
			k:   math.Float64frombits(d.TimeBits),
			epu: math.Float64frombits(d.EnergyBits),
		}
	}
	return out, nil
}

// NewTableFromDump rebuilds a compiled Table from d without any model
// walk. The receiver Space supplies the metadata a Table exposes (specs
// for error messages and Table.Space consumers, the NoSwitchEnergy
// flag); the evaluation coefficients — including the switch wattage —
// come verbatim from the dump, so the restored table evaluates
// bit-identically to the one Dump was called on. Callers are expected
// to have verified out of band (profile hash, build identity) that d
// was compiled from this Space.
func (s Space) NewTableFromDump(d TableDump) (*Table, error) {
	arm, err := restoreKernelEntries("ARM", d.ARM)
	if err != nil {
		return nil, err
	}
	amd, err := restoreKernelEntries("AMD", d.AMD)
	if err != nil {
		return nil, err
	}
	switchW := math.Float64frombits(d.SwitchWBits)
	if math.IsNaN(switchW) || math.IsInf(switchW, 0) || switchW < 0 {
		return nil, fmt.Errorf("cluster: dump switch wattage %v must be non-negative and finite", switchW)
	}
	t := &Table{space: s, arm: arm, amd: amd, switchW: switchW}
	t.indexConfigs()
	return t, nil
}

// GenericOptionDump is one (count, per-node configuration) choice in
// wire form. Count 0 is the absent option and carries no kernel (its
// remaining fields are zero).
type GenericOptionDump struct {
	Count         int
	Cores         int
	FrequencyBits uint64
	TimeBits      uint64
	EnergyBits    uint64
}

// GenericTypeDump is one node type's compiled options.
type GenericTypeDump struct {
	// SwitchWBits is the per-switch wattage bits (bits of 0 unless the
	// type needs a dedicated switch).
	SwitchWBits uint64
	// Options lists the type's choices in enumeration order: the absent
	// option first, then count-major (count, configuration) options.
	Options []GenericOptionDump
}

// GenericTableDump is the compiled state of an N-type GenericTable.
type GenericTableDump struct {
	Types []GenericTypeDump
}

// Dump exports the generic table's compiled coefficients. Unlike the
// two-type TableDump, a GenericTableDump is fully self-contained:
// NewGenericTableFromDump needs no models or specs.
func (g *GenericTable) Dump() GenericTableDump {
	d := GenericTableDump{Types: make([]GenericTypeDump, len(g.t.opts))}
	for i, opts := range g.t.opts {
		td := GenericTypeDump{
			SwitchWBits: math.Float64bits(g.t.switchW[i]),
			Options:     make([]GenericOptionDump, len(opts)),
		}
		for j, o := range opts {
			td.Options[j] = GenericOptionDump{
				Count:         o.count,
				Cores:         o.cfg.Cores,
				FrequencyBits: math.Float64bits(float64(o.cfg.Frequency)),
				TimeBits:      math.Float64bits(o.k),
				EnergyBits:    math.Float64bits(o.epu),
			}
		}
		d.Types[i] = td
	}
	return d
}

// NewGenericTableFromDump rebuilds a compiled GenericTable from d
// without any model walk; the restored table evaluates bit-identically
// to the one Dump was called on. Structural validation mirrors
// newGenericTable's invariants: every type's first option must be the
// absent one, and every present option's time coefficient must be a
// usable divisor.
func NewGenericTableFromDump(d GenericTableDump) (*GenericTable, error) {
	if len(d.Types) == 0 {
		return nil, fmt.Errorf("cluster: generic dump has no node types")
	}
	t := &genericTable{
		opts:    make([][]genOption, len(d.Types)),
		switchW: make([]float64, len(d.Types)),
	}
	for i, td := range d.Types {
		if len(td.Options) == 0 || td.Options[0].Count != 0 {
			return nil, fmt.Errorf("cluster: generic dump type %d: first option must be the absent one", i)
		}
		sw := math.Float64frombits(td.SwitchWBits)
		if math.IsNaN(sw) || math.IsInf(sw, 0) || sw < 0 {
			return nil, fmt.Errorf("cluster: generic dump type %d: switch wattage %v must be non-negative and finite", i, sw)
		}
		opts := make([]genOption, len(td.Options))
		for j, od := range td.Options {
			if od.Count < 0 {
				return nil, fmt.Errorf("cluster: generic dump type %d option %d: negative count %d", i, j, od.Count)
			}
			if od.Count == 0 {
				if j != 0 {
					return nil, fmt.Errorf("cluster: generic dump type %d option %d: absent option out of place", i, j)
				}
				continue
			}
			if err := validKernelDump(fmt.Sprintf("generic type %d", i), j, KernelEntryDump{
				Cores:         od.Cores,
				FrequencyBits: od.FrequencyBits,
				TimeBits:      od.TimeBits,
				EnergyBits:    od.EnergyBits,
			}); err != nil {
				return nil, err
			}
			opts[j] = newOption(od.Count,
				hwsim.Config{Cores: od.Cores, Frequency: units.Hertz(math.Float64frombits(od.FrequencyBits))},
				math.Float64frombits(od.TimeBits), math.Float64frombits(od.EnergyBits), sw)
		}
		t.opts[i] = opts
		t.switchW[i] = sw
	}
	t.shape(make([]int, len(d.Types)), make([]uint64, len(d.Types)))
	return &GenericTable{t: t, types: len(d.Types)}, nil
}
