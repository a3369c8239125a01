package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
	"heteromix/internal/shard"
)

// The frontier oracle: seeded random specs, every frontier path held bit
// for bit against the materializing walk (EnumerateGroups,
// Table.ForEach, which Space.Enumerate must match) plus a batch
// pareto.Frontier whose exact duplicates resolve to the smallest
// enumeration index — the serial walk's first-offered-wins. The reference is the materialized walk, not
// cluster.Evaluate, whose energy differs by a few ULPs. A failing case
// names its seed and spec, so it replays.

const diffSeed = 14

// diffWorks are the work sizes every case draws from: tiny, the
// request defaults, and large enough to stress the energy sum.
var diffWorks = []float64{1, 7e4, 3.7e5, 5e7, 1e9}

// diffMaxPoints bounds a drawn generic space so the battery stays fast
// under -race; it still spans several parallel-frontier chunks.
const diffMaxPoints = 30000

// diffRef is a reference frontier: each survivor's enumeration index and
// (time, energy) in pareto.Frontier's order.
type diffRef struct {
	idx []uint64
	tes []pareto.TE
}

// refFrontier is the batch frontier of tes (indexed by enumeration
// order) with exact duplicates resolved to the smallest index.
func refFrontier(t *testing.T, tes []pareto.TE) diffRef {
	t.Helper()
	first := make(map[[2]uint64]int, len(tes))
	for i := len(tes) - 1; i >= 0; i-- {
		first[[2]uint64{math.Float64bits(tes[i].Time), math.Float64bits(tes[i].Energy)}] = i
	}
	fr, err := pareto.Frontier(tes)
	if err != nil {
		t.Fatal(err)
	}
	ref := diffRef{idx: make([]uint64, len(fr)), tes: make([]pareto.TE, len(fr))}
	for i, te := range fr {
		ref.idx[i] = uint64(first[[2]uint64{math.Float64bits(te.Time), math.Float64bits(te.Energy)}])
		ref.tes[i] = pareto.TE{Time: te.Time, Energy: te.Energy, Index: i}
	}
	return ref
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkTEs compares a path's TEs (and, when given, indices) with ref.
func checkTEs(t *testing.T, path string, ref diffRef, tes []pareto.TE, idx []uint64) {
	t.Helper()
	if len(tes) != len(ref.tes) {
		t.Fatalf("%s: %d frontier points, want %d", path, len(tes), len(ref.tes))
	}
	for i, te := range tes {
		w := ref.tes[i]
		if te.Index != w.Index || !sameBits(te.Time, w.Time) || !sameBits(te.Energy, w.Energy) {
			t.Fatalf("%s: TE %d = %+v, want %+v", path, i, te, w)
		}
		if idx != nil && idx[i] != ref.idx[i] {
			t.Fatalf("%s: index %d = %d, want %d", path, i, idx[i], ref.idx[i])
		}
	}
}

func genericBitsEqual(a, b GenericPoint) bool {
	if !sameBits(float64(a.Time), float64(b.Time)) || !sameBits(float64(a.Energy), float64(b.Energy)) ||
		len(a.Counts) != len(b.Counts) || len(a.Configs) != len(b.Configs) || len(a.Work) != len(b.Work) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] || a.Configs[i] != b.Configs[i] || !sameBits(a.Work[i], b.Work[i]) {
			return false
		}
	}
	return true
}

func pointBitsEqual(a, b Point) bool {
	return a.Config == b.Config && sameBits(float64(a.Time), float64(b.Time)) &&
		sameBits(float64(a.Energy), float64(b.Energy)) && sameBits(a.WorkARM, b.WorkARM)
}

// checkGeneric compares a generic path's points, TEs and indices.
func checkGeneric(t *testing.T, path string, ref diffRef, all []GenericPoint, pts []GenericPoint, tes []pareto.TE, idx []uint64) {
	t.Helper()
	checkTEs(t, path, ref, tes, idx)
	if len(pts) != len(ref.idx) {
		t.Fatalf("%s: %d points, want %d", path, len(pts), len(ref.idx))
	}
	for i, p := range pts {
		if want := all[ref.idx[i]]; !genericBitsEqual(p, want) {
			t.Fatalf("%s: point %d = %+v, want %+v", path, i, p, want)
		}
	}
}

// checkPoints compares a two-type path's points, TEs and indices.
func checkPoints(t *testing.T, path string, ref diffRef, all []Point, pts []Point, tes []pareto.TE, idx []uint64) {
	t.Helper()
	checkTEs(t, path, ref, tes, idx)
	if len(pts) != len(ref.idx) {
		t.Fatalf("%s: %d points, want %d", path, len(pts), len(ref.idx))
	}
	for i, p := range pts {
		if want := all[ref.idx[i]]; !pointBitsEqual(p, want) {
			t.Fatalf("%s: point %d = %+v, want %+v", path, i, p, want)
		}
	}
}

// drawTypes draws 1–4 node types (repeats allowed, so exact duplicate
// points occur), each with MaxNodes 0–5, a random switch need and, for
// unpruned spaces, a random configuration subset. A space above
// diffMaxPoints is shrunk, largest type first, by one node or one
// configuration at a time, so many-type spaces stay in the battery.
func drawTypes(t *testing.T, rng *rand.Rand, prune bool) ([]GroupType, string) {
	specs := []hwsim.NodeSpec{hwsim.ARMCortexA9(), hwsim.ARMCortexA15(), hwsim.AMDOpteronK10()}
	loads := []string{"ep", "memcached", "x264"}
	types := make([]GroupType, 1+rng.IntN(4))
	for i := range types {
		spec, load := specs[rng.IntN(len(specs))], loads[rng.IntN(len(loads))]
		types[i] = GroupType{
			Model:       nodeModel(t, spec, load),
			MaxNodes:    rng.IntN(6),
			NeedsSwitch: rng.IntN(2) == 0,
		}
		if !prune {
			cfgs := hwsim.Configs(spec)
			rng.Shuffle(len(cfgs), func(a, b int) { cfgs[a], cfgs[b] = cfgs[b], cfgs[a] })
			types[i].Configs = cfgs[:1+rng.IntN(len(cfgs))]
		}
	}
	if prune {
		var err error
		if types, err = PruneGroupTypes(types); err != nil {
			t.Fatal(err)
		}
	}
	for GenericSpaceSize(types) > diffMaxPoints {
		big := &types[0]
		for i := range types {
			if types[i].MaxNodes*len(types[i].Configs) > big.MaxNodes*len(big.Configs) {
				big = &types[i]
			}
		}
		if len(big.Configs) > big.MaxNodes {
			big.Configs = big.Configs[:len(big.Configs)-1]
		} else {
			big.MaxNodes--
		}
	}
	desc := fmt.Sprintf("%d points", GenericSpaceSize(types))
	for _, gt := range types {
		desc += fmt.Sprintf(" [%s max=%d sw=%v cfgs=%d]", gt.Model.Spec.Name,
			gt.MaxNodes, gt.NeedsSwitch, len(gt.Configs))
	}
	return types, desc
}

// checkTableFrontiers checks every frontier path of one table against
// ref: Frontier folding its candidates per call and off a prebuilt set
// (WithCandidates), the FrontierParallel wrapper, and the same two on a
// table restored from g's dump.
func checkTableFrontiers(t *testing.T, g *GenericTable, w float64, ref diffRef, all []GenericPoint) {
	t.Helper()
	restored, err := NewGenericTableFromDump(g.Dump())
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func() ([]GenericPoint, []pareto.TE, error)
	}{
		{"Frontier", func() ([]GenericPoint, []pareto.TE, error) { return g.Frontier(w) }},
		{"WithCandidates.Frontier", func() ([]GenericPoint, []pareto.TE, error) { return g.WithCandidates().Frontier(w) }},
		{"FrontierParallel", func() ([]GenericPoint, []pareto.TE, error) { return g.FrontierParallel(w, runtime.GOMAXPROCS(0)+1) }},
		{"restored Frontier", func() ([]GenericPoint, []pareto.TE, error) { return restored.Frontier(w) }},
		{"restored WithCandidates.Frontier", func() ([]GenericPoint, []pareto.TE, error) {
			return restored.WithCandidates().Frontier(w)
		}},
	}
	for _, p := range paths {
		pts, tes, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		checkGeneric(t, p.name, ref, all, pts, tes, nil)
	}
}

func TestFrontierDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(diffSeed, 0))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for c := 0; c < 32; c++ {
		prune := c%2 == 1
		types, desc := drawTypes(t, rng, prune)
		w := diffWorks[rng.IntN(len(diffWorks))]
		name := fmt.Sprintf("generic-%d", c)
		t.Run(name, func(t *testing.T) {
			t.Logf("seed %d case %d: w=%v prune=%v %s", diffSeed, c, w, prune, desc)
			g, err := NewGenericTable(types)
			if err != nil {
				t.Fatal(err)
			}
			all, err := EnumerateGroups(types, w)
			if g.Size() == 0 {
				// The all-absent space: every path refuses it.
				if _, _, err := g.Frontier(w); err == nil {
					t.Fatal("Frontier accepted an empty space")
				}
				if _, _, err := g.FrontierParallel(w, 2); err == nil {
					t.Fatal("FrontierParallel accepted an empty space")
				}
				if _, err := g.FrontierShard(w, shard.Shard{Index: 0, Count: 2}); err == nil {
					t.Fatal("FrontierShard accepted an empty space")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ref := refFrontier(t, genericTE(all))

			checkTableFrontiers(t, g, w, ref, all)
			pts, tes, err := GenericFrontierOf(types, w)
			if err != nil {
				t.Fatal(err)
			}
			checkGeneric(t, "GenericFrontierOf", ref, all, pts, tes, nil)
			pts, tes, err = GenericFrontierOfParallel(types, w, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkGeneric(t, "GenericFrontierOfParallel", ref, all, pts, tes, nil)
			for n := 1; n <= 7; n++ {
				parts := make([]ShardFrontier[GenericPoint], n)
				for i := range parts {
					sh := shard.Shard{Index: i, Count: n}
					if parts[i], err = g.FrontierShardContext(context.Background(), w, sh); err != nil {
						t.Fatal(err)
					}
					if sf, err := g.FrontierShard(w, sh); err != nil || !reflect.DeepEqual(sf, parts[i]) {
						t.Fatalf("shard %v: FrontierShard differs from FrontierShardContext (err %v)", sh, err)
					}
					if _, err := g.FrontierShardContext(cancelled, w, sh); !errors.Is(err, context.Canceled) {
						t.Fatalf("shard %v: cancelled walk returned %v, want context.Canceled", sh, err)
					}
				}
				m, err := MergeShardFrontiers(parts)
				if err != nil {
					t.Fatal(err)
				}
				checkGeneric(t, fmt.Sprintf("%d shards", n), ref, all, m.Points, m.TEs, m.Indices)
			}
		})
	}
	// Hand-made tables whose options make exact duplicate and float
	// near-tie points (candidates_test.go), at every work size.
	// The last two work sizes lie outside the rounding bound's range, so
	// they check the every-point fallback.
	for _, c := range craftedDumps() {
		g, err := NewGenericTableFromDump(c.dump)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range append(diffWorks[:len(diffWorks):len(diffWorks)], 1e-200, 1e200) {
			t.Run(fmt.Sprintf("%s-w%g", c.name, w), func(t *testing.T) {
				all, err := g.Enumerate(w)
				if err != nil {
					t.Fatal(err)
				}
				checkTableFrontiers(t, g, w, refFrontier(t, genericTE(all)), all)
			})
		}
	}
	for c := 0; c < 16; c++ {
		loads := []string{"ep", "memcached", "x264"}
		load := loads[rng.IntN(len(loads))]
		s := Space{
			ARM:            nodeModel(t, hwsim.ARMCortexA9(), load),
			AMD:            nodeModel(t, hwsim.AMDOpteronK10(), load),
			NoSwitchEnergy: c%2 == 1,
		}
		maxARM, maxAMD := rng.IntN(9), rng.IntN(9)
		if maxARM+maxAMD == 0 {
			maxARM = 1
		}
		w := diffWorks[rng.IntN(len(diffWorks))]
		t.Run(fmt.Sprintf("two-%d", c), func(t *testing.T) {
			t.Logf("seed %d case %d: %s %dx%d w=%v NoSwitchEnergy=%v", diffSeed, c, load, maxARM, maxAMD, w, s.NoSwitchEnergy)
			tbl, err := s.NewTable()
			if err != nil {
				t.Fatal(err)
			}
			var all []Point
			if err := tbl.ForEach(maxARM, maxAMD, w, func(p Point) bool {
				all = append(all, p)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			enumerated, err := s.Enumerate(maxARM, maxAMD, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(enumerated) != len(all) {
				t.Fatalf("Space.Enumerate: %d points, Table.ForEach %d", len(enumerated), len(all))
			}
			for i := range all {
				if !pointBitsEqual(enumerated[i], all[i]) {
					t.Fatalf("Space.Enumerate: point %d = %+v, Table.ForEach has %+v", i, enumerated[i], all[i])
				}
			}
			tes := make([]pareto.TE, len(all))
			for i, p := range all {
				tes[i] = pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: i}
			}
			ref := refFrontier(t, tes)

			pts, got, err := tbl.Frontier(maxARM, maxAMD, w)
			if err != nil {
				t.Fatal(err)
			}
			checkPoints(t, "Table.Frontier", ref, all, pts, got, nil)
			pts, got, err = FrontierOf(s, maxARM, maxAMD, w)
			if err != nil {
				t.Fatal(err)
			}
			checkPoints(t, "FrontierOf", ref, all, pts, got, nil)
		})
	}
}
