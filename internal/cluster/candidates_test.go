package cluster

import (
	"math"
	"math/big"
	"slices"
	"testing"

	"heteromix/internal/pareto"
)

// optionDump is a hand-made present option: count nodes of a one-core
// 1 GHz configuration with k seconds and epu joules per work unit.
func optionDump(count int, k, epu float64) GenericOptionDump {
	return GenericOptionDump{
		Count: count, Cores: 1, FrequencyBits: math.Float64bits(1e9),
		TimeBits: math.Float64bits(k), EnergyBits: math.Float64bits(epu),
	}
}

// typeDump is a type with the given present options after the absent
// one, drawing switchW watts per switch.
func typeDump(switchW float64, opts ...GenericOptionDump) GenericTypeDump {
	return GenericTypeDump{
		SwitchWBits: math.Float64bits(switchW),
		Options:     append([]GenericOptionDump{{}}, opts...),
	}
}

// ulps steps v by n units in the last place (down for negative n).
func ulps(v float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

// craftedDumps are the hand-made tables of TestFrontierDifferential's
// battery: exact duplicate points (identical options within a type and
// across types, so the smallest index must win) and float near-ties
// (options a few ULPs apart, next to a much faster option whose sum
// rounds their difference away, so algebraic and float domination
// disagree), with and without switch draw.
func craftedDumps() []struct {
	name string
	dump GenericTableDump
} {
	a, c := optionDump(1, 1.7, 3.1), optionDump(2, 2.3, 1.9)
	near := optionDump(1, ulps(1.7, -2), ulps(3.1, -3))
	return []struct {
		name string
		dump GenericTableDump
	}{
		{"duplicates", GenericTableDump{Types: []GenericTypeDump{
			typeDump(0, a, a, c),
			typeDump(0, c, a),
			typeDump(20, a, optionDump(3, 1.7, 3.1), a),
		}}},
		{"near-ties", GenericTableDump{Types: []GenericTypeDump{
			typeDump(0, a, near, c),
			typeDump(20, near, a, optionDump(2, ulps(2.3, 1), ulps(1.9, -1))),
			typeDump(0, c, optionDump(2, ulps(2.3, -1), ulps(1.9, 2)), optionDump(1, 1e-3, 1.9)),
		}}},
	}
}

// exactPower is an option's power y = epu·x + switch draw, exactly.
func exactPower(o *genOption) *big.Rat {
	y := new(big.Rat).Mul(new(big.Rat).SetFloat64(o.epu), new(big.Rat).SetFloat64(o.thr))
	return y.Add(y, new(big.Rat).SetFloat64(o.swW))
}

// TestCandidateKeepsFloatNearTies builds two-type tables in which type
// 0's option b dominates its option a algebraically (more throughput,
// strictly less power, over the stored coefficients), next to type 1's
// much faster option c. The sum a+c is then dominated algebraically by
// b+c, but adding c rounds away the ULPs between a and b, so after
// float rounding the two tie or a+c wins. a+c must stay a candidate,
// and the frontier must match scoring every point.
func TestCandidateKeepsFloatNearTies(t *testing.T) {
	const ka, epa = 1.7, 3.1
	// Serial indices: (a, c) is vector 1·2+1, (b, c) vector 2·2+1.
	const ac, bc = 2, 4
	found := 0
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			g, err := NewGenericTableFromDump(GenericTableDump{Types: []GenericTypeDump{
				typeDump(0, optionDump(1, ka, epa), optionDump(1, ulps(ka, -i), ulps(epa, -j))),
				typeDump(0, optionDump(1, 1e-3, 1.9)),
			}})
			if err != nil {
				t.Fatal(err)
			}
			oa, ob := &g.t.opts[0][1], &g.t.opts[0][2]
			if !(ob.thr > oa.thr) || exactPower(ob).Cmp(exactPower(oa)) >= 0 {
				continue // b does not dominate a algebraically
			}
			c := g.t.newCursor()
			te := func(idx uint64, w float64) (float64, float64) {
				g.t.at(c, idx+1, w)
				return float64(c.p.Time), float64(c.p.Energy)
			}
			for _, w := range diffWorks {
				ta, ea := te(ac, w)
				tb, eb := te(bc, w)
				if tb < ta && eb < ea {
					continue // float agrees with the algebra
				}
				found++
				if cands := g.WithCandidates().cands.idx; !slices.Contains(cands, ac) {
					t.Errorf("i=%d j=%d w=%g: near-tie sum a+c dropped from candidates %v", i, j, w, cands)
				}
				all, err := g.Enumerate(w)
				if err != nil {
					t.Fatal(err)
				}
				checkTableFrontiers(t, g, w, refFrontier(t, genericTE(all)), all)
			}
		}
	}
	if found == 0 {
		t.Fatal("the search found no option pair whose float scores contradict their algebraic domination")
	}
	t.Logf("%d float near-ties kept", found)
}

// TestFrontierOutsideRoundingBound checks the every-point fallback on
// model-built tables: work sizes outside the rounding bound's range
// skip the candidates and still give the full walk's frontier, on the
// N-type and the two-type paths.
func TestFrontierOutsideRoundingBound(t *testing.T) {
	types := triTypes(t, 2, 1, 2)
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1e-200, 1e200} {
		if got := g.WithCandidates().Candidates(w); got != g.Size() {
			t.Errorf("w=%g: Candidates = %d, want the whole space %d", w, got, g.Size())
		}
		all, err := g.Enumerate(w)
		if err != nil {
			t.Fatal(err)
		}
		checkTableFrontiers(t, g, w, refFrontier(t, genericTE(all)), all)

		var pts []Point
		if err := tbl.ForEach(3, 3, w, func(p Point) bool {
			pts = append(pts, p)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		ref := refFrontier(t, pointTEs(pts))
		got, tes, err := tbl.Frontier(3, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		checkPoints(t, "Table.Frontier", ref, pts, got, tes, nil)
	}
}

func pointTEs(pts []Point) []pareto.TE {
	tes := make([]pareto.TE, len(pts))
	for i, p := range pts {
		tes[i] = pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: i}
	}
	return tes
}

// TestFoldGivesUpOnDegenerateModels: options whose power is exactly
// proportional to their throughput never beat one another, so the fold
// would form every sum; past maxFoldSums it gives up, and frontiers
// score every point.
func TestFoldGivesUpOnDegenerateModels(t *testing.T) {
	var opts []GenericOptionDump
	for n := 1; n <= 600; n++ {
		opts = append(opts, optionDump(n, 1, 1))
	}
	g, err := NewGenericTableFromDump(GenericTableDump{Types: []GenericTypeDump{typeDump(0, opts...), typeDump(0, opts...)}})
	if err != nil {
		t.Fatal(err)
	}
	if g.WithCandidates().cands.ok {
		t.Fatalf("fold kept going past %d sums", maxFoldSums)
	}
	if got := g.Candidates(1e6); got != g.Size() {
		t.Errorf("Candidates = %d, want the whole space %d", got, g.Size())
	}
}
