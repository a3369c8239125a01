package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"heteromix/internal/hwsim"
)

func TestTableEvaluateMatchesSpaceEvaluate(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const w = 5e7
	for _, cfg := range []Configuration{
		{ARM: TypeConfig{Nodes: 3, Config: maxCfg(s.ARM.Spec)},
			AMD: TypeConfig{Nodes: 2, Config: maxCfg(s.AMD.Spec)}},
		{ARM: TypeConfig{Nodes: 9, Config: hwsim.Configs(s.ARM.Spec)[0]}},
		{AMD: TypeConfig{Nodes: 1, Config: hwsim.Configs(s.AMD.Spec)[2]}},
	} {
		got, err := tbl.Evaluate(cfg, w)
		if err != nil {
			t.Fatalf("Table.Evaluate(%v): %v", cfg, err)
		}
		want, err := s.Evaluate(cfg, w)
		if err != nil {
			t.Fatalf("Space.Evaluate(%v): %v", cfg, err)
		}
		if got.Time != want.Time || got.WorkARM != want.WorkARM {
			t.Errorf("%v: time/split (%v, %v) != direct (%v, %v)",
				cfg, got.Time, got.WorkARM, want.Time, want.WorkARM)
		}
		if !relClose(float64(got.Energy), float64(want.Energy), 1e-12) {
			t.Errorf("%v: energy %v != direct %v", cfg, got.Energy, want.Energy)
		}
		// The predict hot path runs here: it must not allocate.
		if allocs := testing.AllocsPerRun(100, func() { _, _ = tbl.Evaluate(cfg, w) }); allocs != 0 {
			t.Errorf("%v: Table.Evaluate allocates %v times per call, want 0", cfg, allocs)
		}
	}
}

// TestPaperEnumerationOrder pins the two-type enumeration order — a wire
// contract: a limited /v1/enumerate answer is a prefix of it and shard
// frontiers break ties by it — independently of the kernel: every mix
// (ARM count, ARM config, AMD count, AMD config, nested in that order),
// then the ARM-only family, then the AMD-only family, each config list
// in hwsim.Configs order.
func TestPaperEnumerationOrder(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const w, maxARM, maxAMD = 5e6, 3, 2
	order := func(keepARM, keepAMD func(hwsim.Config) bool) []Configuration {
		filter := func(cfgs []hwsim.Config, keep func(hwsim.Config) bool) []hwsim.Config {
			var out []hwsim.Config
			for _, c := range cfgs {
				if keep == nil || keep(c) {
					out = append(out, c)
				}
			}
			return out
		}
		armCfgs, amdCfgs := filter(hwsim.Configs(s.ARM.Spec), keepARM), filter(hwsim.Configs(s.AMD.Spec), keepAMD)
		var want []Configuration
		for na := 1; na <= maxARM; na++ {
			for _, a := range armCfgs {
				for nd := 1; nd <= maxAMD; nd++ {
					for _, d := range amdCfgs {
						want = append(want, Configuration{ARM: TypeConfig{na, a}, AMD: TypeConfig{nd, d}})
					}
				}
			}
		}
		for na := 1; na <= maxARM; na++ {
			for _, a := range armCfgs {
				want = append(want, Configuration{ARM: TypeConfig{na, a}})
			}
		}
		for nd := 1; nd <= maxAMD; nd++ {
			for _, d := range amdCfgs {
				want = append(want, Configuration{AMD: TypeConfig{nd, d}})
			}
		}
		return want
	}
	configsOf := func(walk func(yield func(Point) bool) error) []Configuration {
		t.Helper()
		var got []Configuration
		if err := walk(func(p Point) bool {
			got = append(got, p.Config)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	check := func(name string, got, want []Configuration) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: point %d is %v, want %v", name, i, got[i], want[i])
			}
		}
	}

	full := order(nil, nil)
	pts, err := s.Enumerate(maxARM, maxAMD, w)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := make([]Configuration, len(pts))
	for i, p := range pts {
		enumerated[i] = p.Config
	}
	check("Space.Enumerate", enumerated, full)
	check("Table.ForEach", configsOf(func(y func(Point) bool) error { return tbl.ForEach(maxARM, maxAMD, w, y) }), full)

	topARM, topAMD := maxCfg(s.ARM.Spec).Frequency, maxCfg(s.AMD.Spec).Frequency
	keepARM := func(c hwsim.Config) bool { return c.Frequency == topARM }
	keepAMD := func(c hwsim.Config) bool { return c.Frequency == topAMD }
	check("EnumerateFilteredFunc", configsOf(func(y func(Point) bool) error {
		return s.EnumerateFilteredFunc(maxARM, maxAMD, w, keepARM, keepAMD, y)
	}), order(keepARM, keepAMD))

	for _, mix := range [][2]int{{2, 1}, {3, 0}, {0, 2}} {
		var want []Configuration
		for _, c := range full {
			if c.ARM.Nodes == mix[0] && c.AMD.Nodes == mix[1] {
				want = append(want, c)
			}
		}
		pts, err := s.EnumerateMix(mix[0], mix[1], w)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Configuration, len(pts))
		for i, p := range pts {
			got[i] = p.Config
		}
		check(fmt.Sprintf("EnumerateMix(%d, %d)", mix[0], mix[1]), got, want)
	}

	v := tbl.view(maxARM, maxAMD)
	for idx := range pts {
		if p := v.pointAt(uint64(idx), w); p != pts[idx] {
			t.Fatalf("pointAt(%d) = %v, Enumerate has %v", idx, p, pts[idx])
		}
	}
}

func TestTableEvaluateRejectsBadInput(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	valid := Configuration{ARM: TypeConfig{Nodes: 1, Config: maxCfg(s.ARM.Spec)}}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := tbl.Evaluate(valid, w); err == nil {
			t.Errorf("Evaluate accepted work %v", w)
		}
	}
	for name, cfg := range map[string]Configuration{
		"no nodes":       {},
		"negative nodes": {ARM: TypeConfig{Nodes: -1, Config: maxCfg(s.ARM.Spec)}},
		"unknown config": {ARM: TypeConfig{Nodes: 1, Config: hwsim.Config{Cores: 99, Frequency: 1}}},
	} {
		if _, err := tbl.Evaluate(cfg, 1e4); err == nil {
			t.Errorf("%s: Evaluate accepted %v", name, cfg)
		}
	}
	if _, err := tbl.Evaluate(Configuration{
		AMD: TypeConfig{Nodes: 1, Config: hwsim.Config{Cores: 1, Frequency: 12345}},
	}, 1e4); err == nil || !strings.Contains(err.Error(), "not a configuration") {
		t.Errorf("unknown AMD config error = %v", err)
	}
}

func TestTableForEachMatchesEnumerate(t *testing.T) {
	s := memcachedSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const w, maxARM, maxAMD = 5e4, 3, 2
	want, err := s.Enumerate(maxARM, maxAMD, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Size(maxARM, maxAMD); got != len(want) {
		t.Fatalf("Size = %d, want %d", got, len(want))
	}
	i := 0
	err = tbl.ForEach(maxARM, maxAMD, w, func(p Point) bool {
		if p != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, p, want[i])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("ForEach yielded %d points, want %d", i, len(want))
	}
	// Early stop.
	n := 0
	if err := tbl.ForEach(maxARM, maxAMD, w, func(Point) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop after %d points, want 5", n)
	}
	// Invalid bounds.
	if err := tbl.ForEach(0, 0, w, func(Point) bool { return true }); err == nil {
		t.Error("ForEach accepted an empty space")
	}
	if err := tbl.ForEach(-1, 2, w, func(Point) bool { return true }); err == nil {
		t.Error("ForEach accepted negative bounds")
	}
}

func TestPointSummaryFlattens(t *testing.T) {
	s := epSpace(t)
	p, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 2, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 3, Config: maxCfg(s.AMD.Spec)},
	}, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	sum := p.Summary()
	if sum.ARMNodes != 2 || sum.AMDNodes != 3 {
		t.Errorf("node counts = %d:%d, want 2:3", sum.ARMNodes, sum.AMDNodes)
	}
	if sum.ARMGHz != s.ARM.Spec.FMax().GHzValue() {
		t.Errorf("ARMGHz = %v, want %v", sum.ARMGHz, s.ARM.Spec.FMax().GHzValue())
	}
	if sum.TimeSeconds != float64(p.Time) || sum.EnergyJoules != float64(p.Energy) {
		t.Error("time/energy not carried through")
	}
	if !strings.Contains(sum.Label, "ARM 2:AMD 3") {
		t.Errorf("label = %q", sum.Label)
	}
	// Homogeneous sides omit their settings.
	armOnly, err := s.Evaluate(Configuration{ARM: TypeConfig{Nodes: 1, Config: maxCfg(s.ARM.Spec)}}, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	if got := armOnly.Summary(); got.AMDCores != 0 || got.AMDGHz != 0 {
		t.Errorf("AMD settings leaked into an ARM-only summary: %+v", got)
	}
}
