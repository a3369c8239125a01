package experiments

import (
	"fmt"
	"math"
	"sort"

	"heteromix/internal/cluster"
	"heteromix/internal/pareto"
	"heteromix/internal/plot"
	"heteromix/internal/units"
	"heteromix/internal/workloads"
)

// FrontierResult is a full configuration-space analysis for one workload:
// every evaluated point, the energy-deadline Pareto frontier, the
// homogeneous minimum-energy envelopes, and the detected regions —
// everything Figures 4 and 5 draw.
type FrontierResult struct {
	Workload string
	JobUnits float64
	// Points is the complete configuration space (36,380 entries for the
	// paper's 10 ARM x 10 AMD setting).
	Points []cluster.Point
	// Frontier is the Pareto frontier over Points, time-ascending.
	Frontier []pareto.TE
	// ARMOnlyEnvelope and AMDOnlyEnvelope are the Pareto frontiers
	// restricted to homogeneous configurations (the thin boundary lines
	// of Figures 4 and 5).
	ARMOnlyEnvelope []pareto.TE
	AMDOnlyEnvelope []pareto.TE
	// Sweet is the heterogeneous sweet region, if present.
	Sweet    pareto.Region
	HasSweet bool
	// Overlap is the ARM-only overlap region, if present (the paper
	// finds it for compute-bound workloads only).
	Overlap    pareto.Region
	HasOverlap bool
}

// Figure4 regenerates the paper's Figure 4: the energy-deadline space and
// Pareto frontier for EP (50 million random numbers) on up to 10 ARM and
// 10 AMD nodes.
func (s *Suite) Figure4() (FrontierResult, error) {
	return s.FrontierAnalysis("ep", 10, 10, 0)
}

// Figure5 regenerates the paper's Figure 5: the same analysis for
// memcached (50,000 requests).
func (s *Suite) Figure5() (FrontierResult, error) {
	return s.FrontierAnalysis("memcached", 10, 10, 0)
}

// FrontierAnalysis enumerates the full configuration space for a workload
// (jobUnits = 0 selects the workload's §IV analysis job size) and derives
// the frontier and its regions. Switch energy is included.
func (s *Suite) FrontierAnalysis(workload string, maxARM, maxAMD int, jobUnits float64) (FrontierResult, error) {
	return s.frontierAnalysis(workload, maxARM, maxAMD, jobUnits, false)
}

func (s *Suite) frontierAnalysis(workload string, maxARM, maxAMD int, jobUnits float64, noSwitch bool) (FrontierResult, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return FrontierResult{}, err
	}
	if jobUnits <= 0 {
		jobUnits = w.AnalysisUnits
	}
	// The suite's shared table serves the enumeration: Table.ForEach and
	// Space.EnumerateFunc run the same walk of the same kernel, so the
	// points are bit-identical, and concurrent stages (fig4, fig5,
	// headline) compile each workload's table only once.
	tbl, err := s.Table(workload, noSwitch)
	if err != nil {
		return FrontierResult{}, err
	}
	// One streaming pass builds the point slice (part of the result API)
	// while three online frontiers — the main one plus the homogeneous
	// envelopes — absorb each point as it is produced, replacing three
	// full sorts of the 36,380-point space.
	points := make([]cluster.Point, 0, tbl.Space().SpaceSize(maxARM, maxAMD))
	var full, armF, amdF pareto.OnlineFrontier
	var insErr error
	err = tbl.ForEach(maxARM, maxAMD, jobUnits, func(p cluster.Point) bool {
		te := pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: len(points)}
		points = append(points, p)
		if _, insErr = full.Add(te); insErr != nil {
			return false
		}
		switch {
		case p.Config.AMD.Nodes == 0:
			_, insErr = armF.Add(te)
		case p.Config.ARM.Nodes == 0:
			_, insErr = amdF.Add(te)
		}
		return insErr == nil
	})
	if err == nil {
		err = insErr
	}
	if err != nil {
		return FrontierResult{}, err
	}
	res := FrontierResult{Workload: workload, JobUnits: jobUnits, Points: points}
	res.Frontier = full.Frontier()
	if armF.Len() > 0 {
		res.ARMOnlyEnvelope = armF.Frontier()
	}
	if amdF.Len() > 0 {
		res.AMDOnlyEnvelope = amdF.Frontier()
	}
	labelOf := func(i int) pareto.Label { return labelOfPoint(points[i]) }
	res.Sweet, res.HasSweet = pareto.SweetRegion(res.Frontier, labelOf)
	res.Overlap, res.HasOverlap = pareto.OverlapRegion(res.Frontier, labelOf)
	return res, nil
}

func labelOfPoint(p cluster.Point) pareto.Label {
	switch {
	case p.Config.ARM.Nodes > 0 && p.Config.AMD.Nodes > 0:
		return pareto.LabelMix
	case p.Config.ARM.Nodes > 0:
		return pareto.LabelHomogeneousLow
	default:
		return pareto.LabelHomogeneousHigh
	}
}

// EnergyAtDeadline returns the minimum energy the frontier achieves
// within deadline, with ok = false if infeasible.
func (r FrontierResult) EnergyAtDeadline(deadline units.Seconds) (units.Joule, cluster.Point, bool) {
	te, ok := pareto.EnergyAtDeadline(r.Frontier, float64(deadline))
	if !ok {
		return 0, cluster.Point{}, false
	}
	return units.Joule(te.Energy), r.Points[te.Index], true
}

// Chart renders the figure: the configuration cloud (subsampled for
// legibility), the homogeneous envelopes and the frontier.
func (r FrontierResult) Chart() *plot.Chart {
	c := &plot.Chart{
		Title:  fmt.Sprintf("Pareto frontier for %s", r.Workload),
		XLabel: "Deadline [ms]",
		YLabel: "Energy required for deadline [J]",
	}
	// Subsample the cloud to at most 2000 points.
	stride := len(r.Points)/2000 + 1
	var xs, ys []float64
	for i := 0; i < len(r.Points); i += stride {
		xs = append(xs, r.Points[i].Time.Millis())
		ys = append(ys, float64(r.Points[i].Energy))
	}
	c.Add("All configurations", xs, ys)
	addTE := func(name string, tes []pareto.TE) {
		if len(tes) == 0 {
			return
		}
		var xs, ys []float64
		for _, t := range tes {
			xs = append(xs, t.Time*1e3)
			ys = append(ys, t.Energy)
		}
		c.Add(name, xs, ys)
	}
	addTE("Minimum energy AMD-only", r.AMDOnlyEnvelope)
	addTE("Minimum energy ARM-only", r.ARMOnlyEnvelope)
	addTE("Pareto frontier", r.Frontier)
	return c
}

// FormatFrontier summarizes the analysis as text.
func (r FrontierResult) FormatFrontier() string {
	out := fmt.Sprintf("%s: %d configurations, frontier %d points, time %v..%v, energy %.1fJ..%.1fJ\n",
		r.Workload, len(r.Points), len(r.Frontier),
		units.Seconds(pareto.MinTime(r.Frontier)),
		units.Seconds(r.Frontier[len(r.Frontier)-1].Time),
		pareto.MinEnergy(r.Frontier),
		r.Frontier[0].Energy)
	if r.HasSweet {
		out += fmt.Sprintf("  sweet region: %d mixes, deadline %v..%v, energy %.1fJ..%.1fJ, linear r2=%.3f\n",
			r.Sweet.Points(),
			units.Seconds(r.Sweet.TimeLo), units.Seconds(r.Sweet.TimeHi),
			r.Sweet.EnergyLo, r.Sweet.EnergyHi, r.Sweet.LinearR2)
	}
	if r.HasOverlap {
		out += fmt.Sprintf("  overlap region: %d ARM-only points, deadline %v..%v\n",
			r.Overlap.Points(),
			units.Seconds(r.Overlap.TimeLo), units.Seconds(r.Overlap.TimeHi))
	} else {
		out += "  no overlap region (I/O-bound: homogeneous energy flat as deadline relaxes)\n"
	}
	return out
}

// SortedByTime returns the indices of Points sorted by ascending time,
// for callers that want deterministic iteration.
func (r FrontierResult) SortedByTime() []int {
	idx := make([]int, len(r.Points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := r.Points[idx[a]], r.Points[idx[b]]
		if pa.Time != pb.Time {
			return pa.Time < pb.Time
		}
		return pa.Energy < pb.Energy
	})
	return idx
}

// HomogeneousEnergyFlat reports whether the homogeneous envelope's energy
// stays within relTol across its deadline span — the paper's marker for
// I/O-bound workloads ("the energy incurred by memcached on homogeneous
// systems is constant even as deadline is relaxed"). It considers the
// envelope restricted to a fixed node count (the flattest slice); the
// caller passes the ARM- or AMD-only envelope plus all points.
func (r FrontierResult) HomogeneousEnergyFlat(envelope []pareto.TE, relTol float64) bool {
	if len(envelope) < 2 {
		return true
	}
	// Group envelope energies by node count; within one node count the
	// deadline varies through per-node configs.
	byNodes := map[int][]float64{}
	for _, te := range envelope {
		p := r.Points[te.Index]
		n := p.Config.ARM.Nodes + p.Config.AMD.Nodes
		byNodes[n] = append(byNodes[n], te.Energy)
	}
	for _, es := range byNodes {
		if len(es) < 2 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range es {
			lo, hi = math.Min(lo, e), math.Max(hi, e)
		}
		if (hi-lo)/lo > relTol {
			return false
		}
	}
	return true
}
