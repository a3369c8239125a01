package main

// Answer checking against an in-process reference: the daemon's model
// suite rebuilt with the daemon's noise and seed, warmed the same way,
// and the enumeration, frontier and evaluation functions called
// directly. Every comparison is on bytes (or on a digest of the bytes
// for long streams), never within a tolerance.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"sort"
	"strings"

	"heteromix/internal/calib"
	"heteromix/internal/cluster"
	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/server"
	"heteromix/internal/stream"
)

// The daemon's model-fitting flags at their defaults.
const (
	daemonNoise = 0.03
	daemonSeed  = 1
)

type reference struct {
	suite *experiments.Suite
	gen   map[string]*refTables
	two   map[string]*cluster.Table
}

type refTables struct {
	full, pruned *cluster.GenericTable
	names        []string
}

func newReference() (*reference, error) {
	s := experiments.NewSuite(experiments.SuiteOptions{NoiseSigma: daemonNoise, Seed: daemonSeed})
	if err := s.WarmAllModels(); err != nil {
		return nil, err
	}
	return &reference{suite: s, gen: map[string]*refTables{}, two: map[string]*cluster.Table{}}, nil
}

// groupTypes resolves a request's types to base models.
func (r *reference) groupTypes(s *genSpec) ([]cluster.GroupType, []string, error) {
	types := make([]cluster.GroupType, len(s.types))
	names := make([]string, len(s.types))
	for i, t := range s.types {
		spec, err := hwsim.ByName(t.node)
		if err != nil {
			return nil, nil, err
		}
		nm, err := r.suite.Model(s.workload, spec)
		if err != nil {
			return nil, nil, err
		}
		types[i] = cluster.GroupType{Model: nm, MaxNodes: t.max, NeedsSwitch: t.sw}
		names[i] = t.node
	}
	return types, names, nil
}

// compileGeneric builds the full and pruned tables of a spec, as the
// daemon's table cache does.
func compileGeneric(types []cluster.GroupType) (full, pruned *cluster.GenericTable, err error) {
	pt, err := cluster.PruneGroupTypes(types)
	if err != nil {
		return nil, nil, err
	}
	if full, err = cluster.NewGenericTable(types); err != nil {
		return nil, nil, err
	}
	if pruned, err = cluster.NewGenericTable(pt); err != nil {
		return nil, nil, err
	}
	return full, pruned, nil
}

func (r *reference) tables(s *genSpec) (*refTables, error) {
	key := s.deltaKey()
	for _, t := range s.types {
		key += fmt.Sprintf("|%d", t.max)
	}
	if t, ok := r.gen[key]; ok {
		return t, nil
	}
	types, names, err := r.groupTypes(s)
	if err != nil {
		return nil, err
	}
	full, pruned, err := compileGeneric(types)
	if err != nil {
		return nil, err
	}
	t := &refTables{full: full, pruned: pruned, names: names}
	r.gen[key] = t
	return t, nil
}

func (r *reference) twoTable(workload string) (*cluster.Table, error) {
	if t, ok := r.two[workload]; ok {
		return t, nil
	}
	sp, err := r.suite.Space(workload)
	if err != nil {
		return nil, err
	}
	t, err := sp.NewTable()
	if err != nil {
		return nil, err
	}
	r.two[workload] = t
	return t, nil
}

// genericFrontier is the reference frontier response of a frontier-only
// N-type request (sharded or not: a fleet merge must equal it).
func (r *reference) genericFrontier(s *genSpec) (server.EnumerateGenericResponse, error) {
	t, err := r.tables(s)
	if err != nil {
		return server.EnumerateGenericResponse{}, err
	}
	pts, _, err := t.pruned.Frontier(s.work)
	if err != nil {
		return server.EnumerateGenericResponse{}, err
	}
	resp := server.EnumerateGenericResponse{
		Workload: s.workload, Work: s.work, TypeNames: t.names,
		SpaceSize: t.full.Size(), PrunedSize: t.pruned.Size(), FrontierOnly: true,
		Points: make([]cluster.GenericPointSummary, len(pts)),
	}
	for i, p := range pts {
		resp.Points[i] = p.Summary(t.names)
	}
	resp.Returned = len(resp.Points)
	return resp, nil
}

// genericWalk is the reference of a limited materializing N-type walk:
// the envelope (no points) and the digest of the encoded rows.
func (r *reference) genericWalk(s *genSpec) (server.EnumerateGenericResponse, uint64, error) {
	t, err := r.tables(s)
	if err != nil {
		return server.EnumerateGenericResponse{}, 0, err
	}
	resp := server.EnumerateGenericResponse{Workload: s.workload, Work: s.work, TypeNames: t.names, SpaceSize: t.full.Size()}
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var row []byte
	err = t.full.ForEach(s.work, func(p cluster.GenericPoint) bool {
		if resp.Returned >= s.limit {
			resp.Truncated = true
			return false
		}
		sum := p.Summary(t.names)
		row = stream.AppendGenericPointSummary(row[:0], &sum)
		h.Write(row)
		h.WriteByte('\n')
		resp.Returned++
		return true
	})
	return resp, h.Sum64(), err
}

func (r *reference) twoFrontier(s *twoSpec) (server.EnumerateResponse, error) {
	t, err := r.twoTable(s.workload)
	if err != nil {
		return server.EnumerateResponse{}, err
	}
	pts, _, err := t.Frontier(s.maxARM, s.maxAMD, s.work)
	if err != nil {
		return server.EnumerateResponse{}, err
	}
	resp := server.EnumerateResponse{Workload: s.workload, Work: s.work, SpaceSize: t.Size(s.maxARM, s.maxAMD),
		FrontierOnly: true, Points: make([]cluster.PointSummary, len(pts))}
	for i, p := range pts {
		resp.Points[i] = p.Summary()
	}
	resp.Returned = len(pts)
	return resp, nil
}

func (r *reference) twoWalk(s *twoSpec) (server.EnumerateResponse, uint64, error) {
	t, err := r.twoTable(s.workload)
	if err != nil {
		return server.EnumerateResponse{}, 0, err
	}
	resp := server.EnumerateResponse{Workload: s.workload, Work: s.work, SpaceSize: t.Size(s.maxARM, s.maxAMD)}
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var row []byte
	err = t.ForEach(s.maxARM, s.maxAMD, s.work, func(p cluster.Point) bool {
		if resp.Returned >= s.limit {
			resp.Truncated = true
			return false
		}
		sum := p.Summary()
		row = stream.AppendPointSummary(row[:0], &sum)
		h.Write(row)
		h.WriteByte('\n')
		resp.Returned++
		return true
	})
	return resp, h.Sum64(), err
}

// predictBody is the reference /v1/predict body under a space.
func predictBody(tbl *cluster.Table, ps *predictSpec) ([]byte, error) {
	p, err := tbl.Evaluate(ps.cfg, ps.req.Work)
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.PredictResponse{
		Workload: ps.req.Workload, Work: ps.req.Work, Point: p.Summary(),
		AvgPowerWatts: float64(p.Energy) / float64(p.Time),
	})
}

// headMode reads a delta stream head's mode.
func headMode(head []byte) (string, error) {
	var h struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(head, &h); err != nil {
		return "", fmt.Errorf("stream head: %w", err)
	}
	return h.Mode, nil
}

// streamEnvelope rebuilds the buffered envelope a stream describes:
// head fields plus the trailer's counts.
func streamEnvelope(res *result, into any) error {
	if err := json.Unmarshal(res.head, into); err != nil {
		return fmt.Errorf("stream head: %w", err)
	}
	return json.Unmarshal(res.trailer, into)
}

// checker accumulates wrong answers.
type checker struct {
	ref     *reference
	checked int
	wrong   map[int]string // op id -> reason
}

func (c *checker) fail(o *op, format string, args ...any) {
	if _, dup := c.wrong[o.id]; !dup {
		c.wrong[o.id] = fmt.Sprintf("%s #%d: ", o.kind, o.id) + fmt.Sprintf(format, args...)
	}
}

func sameJSON(a, b any) bool { return bytes.Equal(mustJSON(a), mustJSON(b)) }

// check verifies one completed, sampled result (predicts are checked
// separately, against the calibration timeline).
func (c *checker) check(res *result) error {
	o := res.op
	switch o.kind {
	case kGeneric, kFleet:
		want, err := c.ref.genericFrontier(o.spec.(*genSpec))
		if err != nil {
			return err
		}
		if !bytes.Equal(res.body, mustJSON(want)) {
			c.fail(o, "frontier differs from the unsharded reference")
		}
	case kEnum:
		want, err := c.ref.twoFrontier(o.spec.(*twoSpec))
		if err != nil {
			return err
		}
		if !bytes.Equal(res.body, mustJSON(want)) {
			c.fail(o, "frontier differs from the reference")
		}
	case kStreamN, kStreamSE:
		want, digest, err := c.ref.genericWalk(o.spec.(*genSpec))
		if err != nil {
			return err
		}
		var got server.EnumerateGenericResponse
		if err := streamEnvelope(res, &got); err != nil || !sameJSON(got, want) || res.digest != digest || res.rows != want.Returned {
			c.fail(o, "stream differs from the buffered answer (err %v, rows %d want %d)", err, res.rows, want.Returned)
		}
	case kStream2:
		want, digest, err := c.ref.twoWalk(o.spec.(*twoSpec))
		if err != nil {
			return err
		}
		var got server.EnumerateResponse
		if err := streamEnvelope(res, &got); err != nil || !sameJSON(got, want) || res.digest != digest || res.rows != want.Returned {
			c.fail(o, "stream differs from the buffered answer (err %v, rows %d want %d)", err, res.rows, want.Returned)
		}
	case kDelta:
		want, err := c.ref.genericFrontier(o.spec.(*genSpec))
		if err != nil {
			return err
		}
		rows := make([]string, len(want.Points))
		for i := range want.Points {
			rows[i] = string(stream.AppendGenericPointSummary(nil, &want.Points[i]))
		}
		got := make([]string, len(res.frontier))
		for i, r := range res.frontier {
			got[i] = string(r)
		}
		sort.Strings(rows)
		sort.Strings(got)
		if strings.Join(rows, "\n") != strings.Join(got, "\n") {
			c.fail(o, "%s-mode delta applied to its predecessor differs from the full frontier (%d rows, want %d)",
				res.deltaMode, len(got), len(rows))
		}
	default:
		return fmt.Errorf("no check for kind %q", o.kind)
	}
	c.checked++
	return nil
}

// checkCalibrated verifies the predict-open timeline. Every write is
// replayed, in acknowledgement order, into a reference calib.Registry
// over the reference suite; each acknowledgement must equal the
// reference's bytes. A sampled predict or batch that does not overlap a
// refit write is checked against the reference profile that was active
// while it ran.
func (c *checker) checkCalibrated(reads, writes []*result) error {
	reg := calib.NewRegistry(c.ref.suite, calib.Options{})
	sort.Slice(writes, func(i, j int) bool { return writes[i].sent.Before(writes[j].sent) })
	// refit[i] is whether write i installed a refit.
	refit := make([]bool, len(writes))
	// pending groups the checkable reads by how many writes were
	// acknowledged before they were sent.
	pending := make(map[int][]*result)
	for _, rd := range reads {
		k := 0
		for k < len(writes) && !writes[k].done.After(rd.sent) {
			k++
		}
		pending[k] = append(pending[k], rd)
	}
	// Whether a read overlaps a refit is known only once the replay has
	// produced the refit flags, so every state's tables are kept and the
	// reads are checked at the end. states[k] holds the reference tables
	// after the first k writes.
	states := make([]map[string]*cluster.Table, len(writes)+1)
	snapshot := func(i int) error {
		states[i] = map[string]*cluster.Table{}
		for _, rd := range pending[i] {
			for _, ps := range readSpecs(rd.op) {
				wl := ps.req.Workload
				if _, ok := states[i][wl]; ok {
					continue
				}
				sp, err := reg.Space(wl)
				if err != nil {
					return err
				}
				t, err := sp.NewTable()
				if err != nil {
					return err
				}
				states[i][wl] = t
			}
		}
		return nil
	}
	if err := snapshot(0); err != nil {
		return err
	}
	for i, w := range writes {
		fs := w.op.spec.(*fitSpec)
		got, err := reg.Ingest(fs.workload, fs.node, fs.samples)
		if err != nil {
			return err
		}
		refit[i] = got.Refit
		want := mustJSON(server.FitResponse{Workload: fs.workload, Node: fs.node, IngestResult: got})
		if !w.ok() || !bytes.Equal(w.body, want) {
			c.fail(w.op, "write acknowledgement differs from the reference registry")
		}
		c.checked++
		if err := snapshot(i + 1); err != nil {
			return err
		}
	}
	for k, rds := range pending {
		for _, rd := range rds {
			overlaps := false
			for i := k; i < len(writes) && writes[i].sent.Before(rd.done); i++ {
				overlaps = overlaps || refit[i]
			}
			if overlaps || !rd.ok() {
				continue
			}
			if err := c.checkRead(rd, states[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

func readSpecs(o *op) []*predictSpec {
	if o.kind == kBatch {
		return o.spec.([]*predictSpec)
	}
	return []*predictSpec{o.spec.(*predictSpec)}
}

func (c *checker) checkRead(rd *result, tables map[string]*cluster.Table) error {
	o := rd.op
	if o.kind == kPredict {
		ps := o.spec.(*predictSpec)
		want, err := predictBody(tables[ps.req.Workload], ps)
		if err != nil {
			return err
		}
		if !bytes.Equal(rd.body, want) {
			c.fail(o, "predict differs from the reference")
		}
		c.checked++
		return nil
	}
	var env struct {
		Items []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rd.body, &env); err != nil {
		c.fail(o, "batch body: %v", err)
		return nil
	}
	specs := o.spec.([]*predictSpec)
	if len(env.Items) != len(specs) {
		c.fail(o, "batch has %d items, want %d", len(env.Items), len(specs))
		return nil
	}
	for i, ps := range specs {
		want, err := predictBody(tables[ps.req.Workload], ps)
		if err != nil {
			return err
		}
		if env.Items[i].Status != http.StatusOK || !bytes.Equal(env.Items[i].Body, want) {
			c.fail(o, "batch item %d differs from the reference", i)
		}
	}
	c.checked++
	return nil
}
