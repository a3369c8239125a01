package main

// The four workloads: seeded request generators for the warm-up and
// measured phases. The daemon receives only the generated requests;
// every choice below is a property of the traffic, not of the code.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"

	"heteromix/internal/calib"
	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/server"
	"heteromix/internal/workloads"
)

// workload describes one traffic mix.
type workload struct {
	name    string
	sharded bool // coordinator + 2 replicas instead of one daemon
	open    bool // open loop (predict-open) instead of 1 closed-loop client
	warmup  time.Duration
	// mix returns a generator over the given RNG: one for the warm-up
	// stream and one for the measured stream. Generators of one run share
	// state (the never-repeat set, the predict key universe).
	mix func(g *gen, rng *rand.Rand) func() *op
}

var allWorkloads = []*workload{
	{name: "predict-open", open: true, warmup: 2 * time.Second, mix: (*gen).predictOpen},
	{name: "frontier-sweep", warmup: 1500 * time.Millisecond, mix: (*gen).frontierSweep},
	{name: "stream-rows", warmup: 1500 * time.Millisecond, mix: (*gen).streamRows},
	{name: "fleet-fanout", sharded: true, warmup: 2 * time.Second, mix: (*gen).fleetFanout},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// Traffic parameters.
const (
	openRate      = 800.0 // predict-open arrivals per second
	predictKeys   = 50000 // distinct predict keys
	zipfS         = 1.1
	batchShare    = 0.05
	fitEvery      = 100 * time.Millisecond
	fitSamples    = 8
	fitsPerEpoch  = 25 // a fresh drifted (workload, node) pair every 2.5 s
	maxStreamRows = 20000
	minStreamRows = 2000
)

// gen holds one run's generator state.
type gen struct {
	ref    *reference
	seed   int64
	seen   map[string]bool // request bodies already sent (never-repeat workloads)
	nextID int
	keys   []*predictSpec // predict-open key universe
	pairs  [][2]string    // predict-open fit pairs (workload, node), shuffled
}

func newGen(ref *reference, seed int64) *gen {
	return &gen{ref: ref, seed: seed, seen: map[string]bool{}}
}

func (g *gen) op(kind, method, path string, body []byte, spec any) *op {
	g.nextID++
	return &op{id: g.nextID, kind: kind, method: method, path: path, body: body, spec: spec}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// --- shapes ------------------------------------------------------------

// genType is one node type of an N-type request.
type genType struct {
	node string
	max  int
	sw   bool
}

// genSpec is an N-type enumeration request.
type genSpec struct {
	workload string
	types    []genType
	work     float64
	frontier bool
	limit    int // materializing walks
	shards   int
	delta    bool
}

func (s *genSpec) request() server.EnumerateGenericRequest {
	r := server.EnumerateGenericRequest{
		Workload: s.workload, Work: s.work, FrontierOnly: s.frontier,
		Limit: s.limit, Shards: s.shards, Delta: s.delta,
	}
	for _, t := range s.types {
		r.Types = append(r.Types, server.GenericTypeRequest{Node: t.node, MaxNodes: t.max, NeedsSwitch: t.sw})
	}
	return r
}

// query is the SSE endpoint's spelling of the request.
func (s *genSpec) query() string {
	var ts []string
	for _, t := range s.types {
		e := t.node + ":" + strconv.Itoa(t.max)
		if t.sw {
			e += ":switch"
		}
		ts = append(ts, e)
	}
	q := url.Values{}
	q.Set("workload", s.workload)
	q.Set("types", strings.Join(ts, ","))
	q.Set("work", strconv.FormatFloat(s.work, 'g', -1, 64))
	q.Set("limit", strconv.Itoa(s.limit))
	return q.Encode()
}

// deltaKey mirrors the daemon's predecessor key: workload plus the type
// list without bounds.
func (s *genSpec) deltaKey() string {
	var b strings.Builder
	b.WriteString(s.workload)
	for _, t := range s.types {
		b.WriteString("|" + t.node)
		if t.sw {
			b.WriteString(":switch")
		}
	}
	return b.String()
}

// twoSpec is a 2-type /v1/enumerate request.
type twoSpec struct {
	workload       string
	maxARM, maxAMD int
	work           float64
	frontier       bool
	limit          int
}

func (s *twoSpec) request() server.EnumerateRequest {
	return server.EnumerateRequest{Workload: s.workload, MaxARM: s.maxARM, MaxAMD: s.maxAMD,
		Work: s.work, FrontierOnly: s.frontier, Limit: s.limit}
}

// predictSpec is one predict key.
type predictSpec struct {
	req server.PredictRequest
	cfg cluster.Configuration
}

// fitSpec is one /v1/fit write.
type fitSpec struct {
	workload, node string
	samples        []calib.Sample
}

// triTypes are the three node types of every tri-cluster request.
func triTypes(a9, a15, k10 int) []genType {
	return []genType{
		{node: "arm-cortex-a9", max: a9, sw: true},
		{node: "arm-cortex-a15", max: a15, sw: true},
		{node: "amd-opteron-k10", max: k10},
	}
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func ones(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = 1
	}
	return xs
}

// workDraw draws a work volume continuously around the workload's
// analysis size, so frontier results never repeat.
func workDraw(rng *rand.Rand, wl string) float64 {
	spec, err := workloads.ByName(wl)
	if err != nil {
		panic(err) // names come from workloads.Names
	}
	return spec.AnalysisUnits * math.Pow(10, rng.Float64()*0.6-0.3)
}

// fresh reports whether body has not been sent in this run, and marks
// it sent.
func (g *gen) fresh(body string) bool {
	if g.seen[body] {
		return false
	}
	g.seen[body] = true
	return true
}

// --- predict-open ------------------------------------------------------

// buildKeys draws the predict key universe from the run seed.
func (g *gen) buildKeys(rng *rand.Rand) {
	names := workloads.Names()
	armSpec, amdSpec := g.ref.suite.ARM, g.ref.suite.AMD
	side := func(spec hwsim.NodeSpec, nodes int) (server.GroupRequest, hwsim.Config) {
		if nodes == 0 {
			return server.GroupRequest{}, hwsim.Config{}
		}
		cores := 1 + rng.Intn(spec.Cores)
		f := pick(rng, spec.Frequencies)
		return server.GroupRequest{Nodes: nodes, Cores: cores, GHz: f.GHzValue()},
			hwsim.Config{Cores: cores, Frequency: f}
	}
	seen := map[string]bool{}
	for len(g.keys) < predictKeys {
		wl := pick(rng, names)
		spec, _ := workloads.ByName(wl)
		na, nd := rng.Intn(17), rng.Intn(17)
		if na+nd == 0 {
			continue
		}
		ps := &predictSpec{}
		ps.req.Workload = wl
		ps.req.Work = spec.AnalysisUnits * []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		ps.req.ARM, ps.cfg.ARM.Config = side(armSpec, na)
		ps.req.AMD, ps.cfg.AMD.Config = side(amdSpec, nd)
		ps.cfg.ARM.Nodes, ps.cfg.AMD.Nodes = na, nd
		k := string(mustJSON(ps.req))
		if seen[k] {
			continue
		}
		seen[k] = true
		g.keys = append(g.keys, ps)
	}
	for _, wl := range names {
		g.pairs = append(g.pairs, [2]string{wl, armSpec.Name}, [2]string{wl, amdSpec.Name})
	}
	rng.Shuffle(len(g.pairs), func(i, j int) { g.pairs[i], g.pairs[j] = g.pairs[j], g.pairs[i] })
}

func (g *gen) predictOpen(rng *rand.Rand) func() *op {
	zipf := rand.NewZipf(rng, zipfS, 1, predictKeys-1)
	return func() *op {
		if rng.Float64() < batchShare {
			n := 8 + rng.Intn(57)
			items := make([]server.BatchItem, n)
			specs := make([]*predictSpec, n)
			for i := range items {
				specs[i] = g.keys[zipf.Uint64()]
				items[i] = server.BatchItem{Kind: "predict", Request: mustJSON(specs[i].req)}
			}
			return g.op(kBatch, "POST", "/v1/batch", mustJSON(server.BatchRequest{Items: items}), specs)
		}
		ps := g.keys[zipf.Uint64()]
		return g.op(kPredict, "POST", "/v1/predict", mustJSON(ps.req), ps)
	}
}

// fitOp builds the i-th write of the measured phase: samples of the
// epoch's pair, observed at a drifted scale so the first write of each
// epoch pushes drift past the refit threshold and later ones do not.
func (g *gen) fitOp(rng *rand.Rand, i int) (*op, error) {
	epoch := i / fitsPerEpoch
	pair := g.pairs[epoch%len(g.pairs)]
	erng := rand.New(rand.NewSource(g.seed*7919 + int64(epoch)))
	tScale := 1.2 + 0.2*erng.Float64()
	eScale := 1.15 + 0.2*erng.Float64()
	spec, err := hwsim.ByName(pair[1])
	if err != nil {
		return nil, err
	}
	nm, err := g.ref.suite.Model(pair[0], spec)
	if err != nil {
		return nil, err
	}
	fs := &fitSpec{workload: pair[0], node: pair[1]}
	req := server.FitRequest{Workload: pair[0], Node: pair[1]}
	for len(fs.samples) < fitSamples {
		cfg := hwsim.Config{Cores: 1 + rng.Intn(spec.Cores), Frequency: pick(rng, spec.Frequencies)}
		work := workDraw(rng, pair[0])
		p, err := nm.Predict(cfg, work)
		if err != nil {
			return nil, err
		}
		s := calib.Sample{
			Cores: cfg.Cores, GHz: cfg.Frequency.GHzValue(), Work: work,
			TimeSeconds:  float64(p.Time) * tScale * (1 + 0.01*rng.NormFloat64()),
			EnergyJoules: float64(p.Energy) * eScale * (1 + 0.01*rng.NormFloat64()),
		}
		fs.samples = append(fs.samples, s)
		req.Samples = append(req.Samples, server.FitSample{Cores: s.Cores, GHz: s.GHz, Work: s.Work,
			TimeSeconds: s.TimeSeconds, EnergyJoules: s.EnergyJoules})
	}
	return g.op(kFit, "POST", "/v1/fit", mustJSON(req), fs), nil
}

// openSchedule lays out the measured phase of predict-open: Poisson
// read arrivals at openRate plus one sequential write every fitEvery.
// Each op's at is its offset from the start of the phase.
func (g *gen) openSchedule(rng *rand.Rand, d time.Duration) ([]*op, error) {
	next := g.predictOpen(rng)
	var ops []*op
	t := time.Duration(0)
	nextFit := fitEvery / 2
	var prev chan struct{}
	fits := 0
	for {
		t += time.Duration(rng.ExpFloat64() / openRate * float64(time.Second))
		for nextFit <= t && nextFit < d {
			o, err := g.fitOp(rng, fits)
			if err != nil {
				return nil, err
			}
			fits++
			o.at = nextFit
			o.fitPrev, o.fitDone = prev, make(chan struct{})
			prev = o.fitDone
			ops = append(ops, o)
			nextFit += fitEvery
		}
		if t >= d {
			return ops, nil
		}
		o := next()
		o.at = t
		ops = append(ops, o)
	}
}

// --- frontier-sweep and fleet-fanout -------------------------------------

// triFrontier draws a never-repeated tri-cluster frontier request.
func (g *gen) triFrontier(rng *rand.Rand, shards int) *op {
	for {
		s := &genSpec{
			workload: pick(rng, workloads.Names()),
			types:    triTypes(3+rng.Intn(3), 3+rng.Intn(3), 3+rng.Intn(3)),
			frontier: true,
			shards:   shards,
		}
		s.work = workDraw(rng, s.workload)
		body := mustJSON(s.request())
		if g.fresh(string(body)) {
			kind := kGeneric
			if shards > 0 {
				kind = kFleet
			}
			return g.op(kind, "POST", "/v1/enumerate-generic", body, s)
		}
	}
}

func (g *gen) frontierSweep(rng *rand.Rand) func() *op {
	mix := newDeck(rng, 8, 2) // 80% N-type, 20% 2-type
	return func() *op {
		if mix.draw() == 0 {
			return g.triFrontier(rng, 0)
		}
		for {
			s := &twoSpec{workload: pick(rng, workloads.Names()), maxARM: 8 + rng.Intn(9), maxAMD: 8 + rng.Intn(9), frontier: true}
			s.work = workDraw(rng, s.workload)
			body := mustJSON(s.request())
			if g.fresh(string(body)) {
				return g.op(kEnum, "POST", "/v1/enumerate", body, s)
			}
		}
	}
}

func (g *gen) fleetFanout(rng *rand.Rand) func() *op {
	shards := newDeck(rng, 1, 1)
	return func() *op { return g.triFrontier(rng, 2+2*shards.draw()) }
}

// --- stream-rows ---------------------------------------------------------

// deck deals card indices from a shuffled deck, reshuffling when it runs
// out: every run of len(deck) consecutive draws holds each card its
// share of times, so a one-second window sees the whole mix instead of
// a random sample of it.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck holds counts[i] copies of card i.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for c, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, c)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Stream-rows card kinds, dealt 4:7:5:4 (20% delta polls).
const (
	cardDelta = iota
	cardNDJSON
	cardSSE
	cardTwoType
)

func (g *gen) streamRows(rng *rand.Rand) func() *op {
	kinds := newDeck(rng, 4, 7, 5, 4)
	gzip := newDeck(rng, 2, 1) // a third of the requests ask for gzip
	// Row limits are stratified: 16 equal bands over [min, max], one
	// uniform draw inside the band dealt.
	const bands = 16
	limits := newDeck(rng, ones(bands)...)
	return func() *op {
		card := kinds.draw()
		gz := gzip.draw() == 1
		band := float64(limits.draw())
		limit := minStreamRows + int((band+rng.Float64())/bands*(maxStreamRows-minStreamRows))
		wl := pick(rng, workloads.Names())
		var o *op
		switch card {
		case cardDelta:
			// A frontier poll that only moves bounds and work: the delta path.
			s := &genSpec{workload: wl, types: triTypes(3+rng.Intn(3), 3+rng.Intn(3), 3+rng.Intn(3)),
				work: workDraw(rng, wl), frontier: true, delta: true}
			o = g.op(kDelta, "POST", "/v1/enumerate-generic", mustJSON(s.request()), s)
		case cardNDJSON:
			s := &genSpec{workload: wl, types: triTypes(4+rng.Intn(2), 4+rng.Intn(2), 4+rng.Intn(2)),
				work: workDraw(rng, wl), limit: limit}
			o = g.op(kStreamN, "POST", "/v1/enumerate-generic", mustJSON(s.request()), s)
		case cardSSE:
			s := &genSpec{workload: wl, types: triTypes(4+rng.Intn(2), 4+rng.Intn(2), 4+rng.Intn(2)),
				work: workDraw(rng, wl), limit: limit}
			o = g.op(kStreamSE, "GET", "/v1/enumerate-generic/stream?"+s.query(), nil, s)
		default:
			s := &twoSpec{workload: wl, maxARM: 12 + rng.Intn(5), maxAMD: 12 + rng.Intn(5),
				work: workDraw(rng, wl), limit: limit}
			o = g.op(kStream2, "POST", "/v1/enumerate", mustJSON(s.request()), s)
		}
		o.gzip = gz
		return o
	}
}
