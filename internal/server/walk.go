package server

// The enumeration walks: one function per endpoint, shared by the
// buffered and the streamed answers. It chooses the walk (a
// shard slice's frontier, the whole space's frontier, or the first
// limit points in enumeration order), polls cancellation, decides
// truncation and settles the generic point counters; the caller only
// says what happens to each answer point, through emit. The buffered
// paths append the point to the response, the streamed paths write it
// as a record (or keep its row for a delta). emit returning false
// abandons the walk, because the client is gone; the walk then
// reports no error of its own and counts nothing more.

import (
	"context"

	"heteromix/internal/cluster"
)

// walkPollEvery is how many points a limited walk visits between
// context polls: a poll is free beside this many summaries, and a
// cancelled walk stops within a fraction of a millisecond.
const walkPollEvery = 1 << 10

// walkEnumerate walks req's two-type space of tbl and hands each answer
// point to emit, in wire order. The summary emit receives is reused
// for the next point: copy it to retain it. A limited walk polls ctx
// and returns its error; the frontier answer scores the bounds' frontier
// candidates and runs to completion.
func walkEnumerate(ctx context.Context, tbl *cluster.Table, req EnumerateRequest, emit func(*cluster.PointSummary) bool) (truncated bool, err error) {
	var sum cluster.PointSummary
	if req.FrontierOnly {
		pts, _, err := tbl.Frontier(req.MaxARM, req.MaxAMD, req.Work)
		if err != nil {
			return false, err
		}
		for i := range pts {
			if sum = pts[i].Summary(); !emit(&sum) {
				break
			}
		}
		return false, nil
	}
	n := 0
	err = tbl.ForEach(req.MaxARM, req.MaxAMD, req.Work, func(p cluster.Point) bool {
		if n%walkPollEvery == 0 && ctx.Err() != nil {
			return false
		}
		if n++; n > req.Limit {
			truncated = true
			return false
		}
		sum = p.Summary()
		return emit(&sum)
	})
	if err == nil {
		err = ctx.Err()
	}
	return truncated, err
}

// walkGeneric is walkEnumerate for the N-type space of plan: a shard
// request walks its slice (and returns each survivor's serial index,
// the coordinator's merge key), a frontier request scores the pruned
// table's frontier candidates, anything else walks the first req.Limit
// points. The shard walk polls ctx as the limited walk does. Every
// completed walk adds the points it scored to
// heteromixd_generic_points_evaluated_total (the slice, the candidates
// or the walked prefix) and, under pruning, the points pruning spared to
// heteromixd_generic_points_pruned_total.
func (s *Server) walkGeneric(ctx context.Context, plan genericPlan, req EnumerateGenericRequest, emit func(*cluster.GenericPointSummary) bool) (indices []uint64, truncated bool, err error) {
	var sum cluster.GenericPointSummary
	var pts []cluster.GenericPoint
	switch {
	case plan.shard.Count > 0:
		sf, err := plan.walk.FrontierShardContext(ctx, req.Work, plan.shard)
		if err != nil {
			return nil, false, err
		}
		s.genericPoints.Add(plan.shard.SliceSize(plan.walk.Size()))
		pts, indices = sf.Points, sf.Indices
	case req.FrontierOnly:
		if pts, _, err = plan.walk.Frontier(req.Work); err != nil {
			return nil, false, err
		}
		s.genericPoints.Add(plan.walk.Candidates(req.Work))
	default:
		n, abandoned := 0, false
		err = plan.walk.ForEach(req.Work, func(p cluster.GenericPoint) bool {
			if n%walkPollEvery == 0 && ctx.Err() != nil {
				return false
			}
			if n++; n > req.Limit {
				truncated = true
				return false
			}
			sum = p.Summary(plan.names)
			abandoned = !emit(&sum)
			return !abandoned
		})
		if err == nil {
			err = ctx.Err()
		}
		if err != nil || abandoned {
			return nil, false, err
		}
		s.genericPoints.Add(uint64(n))
	}
	for i := range pts {
		if sum = pts[i].Summary(plan.names); !emit(&sum) {
			return indices, false, nil
		}
	}
	if plan.prunedSize > 0 {
		s.genericPruned.Add(plan.spaceSize - plan.prunedSize)
	}
	return indices, truncated, nil
}
