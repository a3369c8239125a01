package experiments

import (
	"fmt"

	"heteromix/internal/budget"
	"heteromix/internal/cluster"
	"heteromix/internal/pareto"
	"heteromix/internal/plot"
	"heteromix/internal/units"
	"heteromix/internal/workloads"
)

// MixFrontier is the minimum-energy-versus-deadline curve of one node
// pool: the Pareto frontier over every configuration the pool admits —
// any subset of its nodes (unused nodes are powered off, paper §IV-E)
// at any per-node (cores, frequency) setting. One curve of Figures 6-9.
// Treating the mix as a pool rather than a fixed allocation is what
// gives each curve its deadline-energy span, and why the paper's
// Figure 8 curves share one energy floor: a larger pool's sub-space is
// a superset of a smaller one's.
type MixFrontier struct {
	Mix      budget.Mix
	Frontier []pareto.TE
	// MinTime is the mix's fastest achievable service time and MinEnergy
	// its lowest job energy.
	MinTime   units.Seconds
	MinEnergy units.Joule
}

// MixSeriesResult is a family of mix frontiers for one workload.
type MixSeriesResult struct {
	Workload string
	JobUnits float64
	Series   []MixFrontier
}

// Figure6 regenerates the paper's Figure 6: the 1 kW-budget mix series
// for memcached (ARM 0:AMD 16 through ARM 128:AMD 0).
func (s *Suite) Figure6() (MixSeriesResult, error) {
	return s.MixSeries("memcached", budget.PaperBudgetSeries(), 0)
}

// Figure7 regenerates the paper's Figure 7: the same series for EP.
func (s *Suite) Figure7() (MixSeriesResult, error) {
	return s.MixSeries("ep", budget.PaperBudgetSeries(), 0)
}

// Figure8 regenerates the paper's Figure 8: the 8:1-ratio scaling series
// for memcached (ARM 8:AMD 1 doubling to ARM 128:AMD 16).
func (s *Suite) Figure8() (MixSeriesResult, error) {
	mixes, err := budget.ScalingSeries(8, 5)
	if err != nil {
		return MixSeriesResult{}, err
	}
	return s.MixSeries("memcached", mixes, 0)
}

// Figure9 regenerates the paper's Figure 9: the scaling series for EP.
func (s *Suite) Figure9() (MixSeriesResult, error) {
	mixes, err := budget.ScalingSeries(8, 5)
	if err != nil {
		return MixSeriesResult{}, err
	}
	return s.MixSeries("ep", mixes, 0)
}

// MixSeries computes the frontier of every mix in the series for the
// workload (jobUnits = 0 selects the workload's analysis job size).
func (s *Suite) MixSeries(workload string, mixes []budget.Mix, jobUnits float64) (MixSeriesResult, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return MixSeriesResult{}, err
	}
	if jobUnits <= 0 {
		jobUnits = w.AnalysisUnits
	}
	// One shared compiled table serves every mix of the series (and
	// every other stage touching this workload); Table.ForEach runs
	// Space.EnumerateFunc's walk, so the points are bit-identical.
	tbl, err := s.Table(workload, false)
	if err != nil {
		return MixSeriesResult{}, err
	}
	res := MixSeriesResult{Workload: workload, JobUnits: jobUnits}
	for _, m := range mixes {
		// Only the frontier is kept per mix, so stream the sub-space
		// through an online frontier instead of materializing it: the
		// series' point slices (36k+ entries each) never exist.
		var f pareto.OnlineFrontier
		var insErr error
		i := 0
		err := tbl.ForEach(m.ARM, m.AMD, jobUnits, func(p cluster.Point) bool {
			_, insErr = f.Add(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: i})
			i++
			return insErr == nil
		})
		if err == nil {
			err = insErr
		}
		if err != nil {
			return MixSeriesResult{}, err
		}
		fr := f.Frontier()
		res.Series = append(res.Series, MixFrontier{
			Mix:       m,
			Frontier:  fr,
			MinTime:   units.Seconds(pareto.MinTime(fr)),
			MinEnergy: units.Joule(pareto.MinEnergy(fr)),
		})
	}
	return res, nil
}

// Chart renders the series with the paper's log-scale deadline axis.
func (r MixSeriesResult) Chart() *plot.Chart {
	c := &plot.Chart{
		Title:  fmt.Sprintf("Heterogeneous mixes for %s", r.Workload),
		XLabel: "Deadline [ms]",
		YLabel: "Minimum energy [J]",
		LogX:   true,
	}
	for _, mf := range r.Series {
		var xs, ys []float64
		for _, te := range mf.Frontier {
			xs = append(xs, te.Time*1e3)
			ys = append(ys, te.Energy)
		}
		c.Add(mf.Mix.String(), xs, ys)
	}
	return c
}

// Format summarizes each mix's frontier.
func (r MixSeriesResult) Format() string {
	out := fmt.Sprintf("%s (%.0f units/job):\n", r.Workload, r.JobUnits)
	for _, mf := range r.Series {
		out += fmt.Sprintf("  %-16s fastest %8v  min energy %9v  (%d frontier points)\n",
			mf.Mix, mf.MinTime, mf.MinEnergy, len(mf.Frontier))
	}
	return out
}

// EnergyAt returns the mix's minimum energy within a deadline, with
// ok = false when the mix cannot meet it.
func (mf MixFrontier) EnergyAt(deadline units.Seconds) (units.Joule, bool) {
	te, ok := pareto.EnergyAtDeadline(mf.Frontier, float64(deadline))
	if !ok {
		return 0, false
	}
	return units.Joule(te.Energy), true
}
