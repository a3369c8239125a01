package cluster

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
