package cluster

import (
	"heteromix/internal/pareto"
)

// This file is the streaming enumeration API: callers that only need an
// aggregate of the configuration space — a Pareto frontier, a minimum, a
// count — consume points as they are produced and never hold the full
// point slice (36,380 entries for the paper's 10x10 space, millions for
// the scaling studies).

// EnumerateFunc streams every point of the space to yield, in
// Enumerate's order, without materializing the point slice. Returning
// false from yield stops the enumeration early (not an error).
func (s Space) EnumerateFunc(maxARM, maxAMD int, w float64, yield func(Point) bool) error {
	v, err := s.enumView(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return err
	}
	v.walk(w, yield)
	return nil
}

// FrontierOf enumerates the space and returns only its Pareto-optimal
// points, maintained online as the enumeration streams: the full space is
// never materialized, only the current frontier (typically a few hundred
// points). The returned TE slice is the energy-deadline frontier in
// pareto.Frontier's order (time-ascending), with each Index pointing into
// the returned point slice.
func FrontierOf(s Space, maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	var f frontier[Point]
	err := s.EnumerateFunc(maxARM, maxAMD, w, func(p Point) bool { return f.ok(f.tr.Insert(p.te(), p)) })
	return f.result(err)
}

// te is the point's (time, energy). Its pointer receiver keeps the hot
// frontier closures from copying the point.
func (p *Point) te() pareto.TE {
	return pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}
}

func (p *GenericPoint) te() pareto.TE {
	return pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}
}

// frontier is the one online frontier loop of the two-type and N-type
// walks: each yields f.ok(f.tr.Insert(p.te(), p)). Set tr.Clone when the
// walk reuses its payload's storage.
type frontier[P any] struct {
	tr pareto.Tracked[P]
	insertErr
}

// result returns the frontier or the first error.
func (f *frontier[P]) result(err error) ([]P, []pareto.TE, error) {
	if err = f.or(err); err != nil {
		return nil, nil, err
	}
	pts, tes := f.tr.Frontier()
	return pts, tes, nil
}

// insertErr keeps a frontier walk's first insert error.
type insertErr struct{ err error }

// ok takes an insert's results; false stops the walk.
func (e *insertErr) ok(_ bool, err error) bool {
	if err != nil {
		e.err = err
	}
	return err == nil
}

// or returns the walk's own error, else the first insert error.
func (e *insertErr) or(walkErr error) error {
	if walkErr != nil {
		return walkErr
	}
	return e.err
}
