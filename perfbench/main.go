// Command perfbench is heteromix's end-to-end and per-layer benchmark.
// It starts fresh heteromixd daemons on loopback for every run, drives
// them with one seeded workload from this process, checks the answers
// against an in-process reference, and prints every metric by name
// with its unit and sample count. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, via perfbench/run.sh, which builds
// the daemon and this program first):
//
//	bash perfbench/run.sh --workload frontier-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the end-to-end metrics are reported; with --trace 1
// the same run is traced and the per-layer metrics are reported
// instead, from /metrics deltas and an in-process replay of the run's
// inputs through each layer's public functions. NOTES.md records why
// each workload exists and which layer should move which metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Run shape.
const (
	setupReps    = 7 // daemon starts per run; setup_s is their median
	sampleEvery  = 50 * time.Millisecond
	replayBudget = 3 * time.Second
)

// Answer-check sampling rate per op kind (writes are always checked:
// the reference registry replays every one of them).
var checkRate = map[string]float64{
	kPredict: 0.05, kBatch: 0.05, kFit: 1,
	kEnum: 0.1, kGeneric: 0.1, kFleet: 0.15,
	kStream2: 0.1, kStreamN: 0.1, kStreamSE: 0.1, kDelta: 0.25,
}

func main() {
	wname := flag.String("workload", "", "workload: predict-open, frontier-sweep, stream-rows or fleet-fanout")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured phase length in seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("daemon", "", "heteromixd binary")
	outDir := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	if err := run(*wname, *seed, *seconds, *traceOn == 1, *bin, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int  // 0 when not a sampled quantity
	extra   bool // printed in the table only, not in the JSON result
}

type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	wrong             []string
}

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, samples: samples})
}

func (r *report) extra(name string, v float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, samples: samples, extra: true})
}

func run(wname string, seed int64, seconds int, traced bool, bin, outDir string) error {
	w, err := workloadByName(wname)
	if err != nil {
		return err
	}
	if bin == "" {
		return fmt.Errorf("-daemon is required")
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	// The generator stays within the box's two CPUs; so do its
	// connections (2 in the open loop, 1 in the closed loops).
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The generator keeps every result of a run; a larger GC target cuts
	// its collections, which otherwise compete with the daemon for CPU.
	debug.SetGCPercent(400)
	ref, err := newReference()
	if err != nil {
		return err
	}
	rep, err := measure(w, ref, seed, time.Duration(seconds)*time.Second, traced, bin, outDir)
	if err != nil {
		return err
	}
	for _, m := range rep.metrics {
		if m.samples > 0 {
			fmt.Printf("%-28s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, msg := range rep.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", msg)
	}
	out := map[string]any{"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed}
	ms := map[string]any{}
	for _, m := range rep.metrics {
		if m.extra {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value: the run measured nothing it covers", m.name)
		}
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.correct {
		os.Exit(1)
	}
	return nil
}

// phase is what one measured phase leaves behind.
type phase struct {
	results []result
	wall    time.Duration
	genCPU  time.Duration
	before  []scrape
	after   []scrape
	start   time.Time    // phase start; windows count from here
	samples []procSample // daemon CPU and RSS through the phase
}

// cpuAt interpolates the fleet's cumulative CPU time at t.
func (ph *phase) cpuAt(t time.Time) time.Duration {
	s := ph.samples
	if len(s) == 0 {
		return 0
	}
	i := sort.Search(len(s), func(i int) bool { return !s[i].t.Before(t) })
	switch {
	case i == 0:
		return s[0].cpu
	case i == len(s):
		return s[len(s)-1].cpu
	}
	a, b := s[i-1], s[i]
	f := float64(t.Sub(a.t)) / float64(b.t.Sub(a.t))
	return a.cpu + time.Duration(f*float64(b.cpu-a.cpu))
}

// stealAt is the machine's cumulative steal time at the first sample at
// or after t.
func (ph *phase) stealAt(t time.Time) time.Duration {
	s := ph.samples
	i := sort.Search(len(s), func(i int) bool { return !s[i].t.Before(t) })
	if i == len(s) {
		i--
	}
	return s[i].steal
}

// rssPeakIn is the largest summed resident size sampled in [from, to).
func (ph *phase) rssPeakIn(from, to time.Time) float64 {
	peak := math.NaN()
	for _, s := range ph.samples {
		if !s.t.Before(from) && s.t.Before(to) && !(s.rssMB <= peak) {
			peak = s.rssMB
		}
	}
	return peak
}

func measure(w *workload, ref *reference, seed int64, d time.Duration, traced bool, bin, outDir string) (*report, error) {
	var setups []float64
	var f *fleet
	for i := 0; i < setupReps; i++ {
		st0, err := stealTime()
		if err != nil {
			return nil, err
		}
		fl, took, err := startFleet(bin, w.sharded)
		if err != nil {
			return nil, err
		}
		st1, err := stealTime()
		if err != nil {
			fl.stop()
			return nil, err
		}
		// Scaled by the unstolen CPU share, like every end-to-end time.
		setups = append(setups, took.Seconds()*availShare(st1-st0, took))
		if i < setupReps-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	defer f.stop()

	g := newGen(ref, seed)
	measuredRng := rand.New(rand.NewSource(seed))
	warmRng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	checkRng := rand.New(rand.NewSource(seed*31 + 7))
	if w.open {
		g.buildKeys(rand.New(rand.NewSource(seed + 101)))
	}
	sample := func(next func() *op) func() *op {
		return func() *op {
			o := next()
			o.check = checkRng.Float64() < checkRate[o.kind]
			return o
		}
	}
	base := f.entry.url()
	ds := deltaState{}

	// Warm-up: a separate seed stream, closed loop, so caches reach their
	// steady state and lazy set-up finishes before timing.
	workers := 1
	if w.open {
		workers = 2
	}
	warm := runClosed(base, w.mix(g, warmRng), workers, time.Now().Add(w.warmup), ds, nil)
	for _, r := range warm {
		if !r.ok() {
			return nil, fmt.Errorf("warm-up %s #%d failed: status %d err %v %s", r.op.kind, r.op.id, r.status, r.err, r.body)
		}
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var ops []*op
	if w.open {
		var err error
		if ops, err = g.openSchedule(measuredRng, d); err != nil {
			return nil, err
		}
		for _, o := range ops {
			o.check = checkRng.Float64() < checkRate[o.kind]
		}
	}
	ph := &phase{}
	ctx := context.Background()
	for _, dm := range f.all() {
		s, err := getMetrics(ctx, dm)
		if err != nil {
			return nil, err
		}
		ph.before = append(ph.before, s)
	}
	stopSampler := f.sample(sampleEvery, &ph.samples)
	gen0 := selfCPU()
	start := time.Now()
	if w.open {
		s0 := start.Add(20 * time.Millisecond)
		ph.start = s0
		for _, o := range ops {
			o.due = s0.Add(o.at)
		}
		ph.results = runOpen(base, ops, 2, tr)
		ph.wall = time.Since(s0)
	} else {
		ph.start = start
		next := sample(w.mix(g, measuredRng))
		ph.results = runClosed(base, next, 1, start.Add(d), ds, tr)
		ph.wall = time.Since(start)
		for i := range ph.results {
			ops = append(ops, ph.results[i].op)
		}
	}
	ph.genCPU = selfCPU() - gen0
	if err := stopSampler(); err != nil {
		return nil, err
	}
	for _, dm := range f.all() {
		s, err := getMetrics(ctx, dm)
		if err != nil {
			return nil, err
		}
		ph.after = append(ph.after, s)
	}

	rep := &report{}
	chk := &checker{ref: ref, wrong: map[int]string{}}
	if err := checkAnswers(chk, ph.results); err != nil {
		return nil, err
	}
	rep.attempted = len(ph.results)
	for i := range ph.results {
		r := &ph.results[i]
		if _, bad := chk.wrong[r.op.id]; bad || !r.ok() {
			rep.failed++
		}
		if !r.ok() && len(rep.wrong) < 5 {
			rep.wrong = append(rep.wrong, fmt.Sprintf("%s #%d: status %d err %v %s", r.op.kind, r.op.id, r.status, r.err, trimBody(r.body, r.streamErr)))
		}
	}
	for _, msg := range chk.wrong {
		rep.wrong = append(rep.wrong, msg)
	}
	sort.Strings(rep.wrong)
	rep.correct = len(chk.wrong) == 0
	if !traced {
		endToEnd(rep, w, ph, setups)
		rep.extra("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
		rep.extra("answers_checked", float64(chk.checked), "count", 0)
		return rep, nil
	}
	if err := perLayer(rep, w, ph, ops, ref, tr, chk.checked); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("trace-%s-%d.json", w.name, seed)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, name)); err != nil {
		return nil, err
	}
	return rep, nil
}

func trimBody(bs ...[]byte) string {
	for _, b := range bs {
		if len(b) > 0 {
			if len(b) > 200 {
				b = b[:200]
			}
			return string(b)
		}
	}
	return ""
}

// checkAnswers checks the sampled results of the measured phase.
func checkAnswers(c *checker, results []result) error {
	var reads, writes []*result
	for i := range results {
		r := &results[i]
		switch r.op.kind {
		case kFit:
			writes = append(writes, r)
		case kPredict, kBatch:
			if r.op.check {
				reads = append(reads, r)
			}
		default:
			if r.op.check && r.ok() {
				if err := c.check(r); err != nil {
					return err
				}
			}
		}
	}
	if len(writes) > 0 || len(reads) > 0 {
		return c.checkCalibrated(reads, writes)
	}
	return nil
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runClosed drives the daemon with `workers` closed-loop clients until
// the deadline; each client sends its next request when the previous
// one completes.
func runClosed(base string, next func() *op, workers int, until time.Time, ds deltaState, tr *tracer) []result {
	var mu sync.Mutex
	var out []result
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			buf := new(bytes.Buffer)
			for time.Now().Before(until) {
				mu.Lock()
				o := next()
				mu.Unlock()
				_, end := tr.begin("http", 0, o.id)
				// Delta ops are only generated for a single client, so the
				// shared delta state is never touched concurrently.
				r := exchange(cl, base, o, ds, buf)
				end()
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// runOpen sends a precomputed schedule: a pacer releases each op at its
// due time to whichever of `workers` connections is free, so a stall
// also delays the requests queued behind it. Lateness is how far after
// its due time an op was picked up, not counting the wait for a free
// connection.
func runOpen(base string, ops []*op, workers int, tr *tracer) []result {
	// Sized to the whole schedule so the pacer never blocks on a busy
	// connection: its waits must only be its own timer.
	jobs := make(chan *op, len(ops))
	outs := make([][]result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			buf := new(bytes.Buffer)
			freeAt := time.Now()
			for o := range jobs {
				pick := time.Now()
				late := pick.Sub(o.due)
				if freeAt.After(o.due) {
					late = pick.Sub(freeAt)
				}
				if o.fitPrev != nil {
					<-o.fitPrev
				}
				_, end := tr.begin("http", 0, o.id)
				r := exchange(cl, base, o, nil, buf)
				end()
				if o.fitDone != nil {
					close(o.fitDone)
				}
				r.late = late
				outs[i] = append(outs[i], r)
				freeAt = time.Now()
			}
		}(i)
	}
	pace(ops, jobs)
	close(jobs)
	wg.Wait()
	var out []result
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// pace releases ops at their due times. time.Sleep wakes up to a
// millisecond late (the runtime's poller sleeps in whole milliseconds),
// more than the daemon's service time, so the pacer sleeps in the
// kernel on a locked thread with a 1µs timer slack instead.
func pace(ops []*op, jobs chan<- *op) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: only sharpens wake-ups
	for _, o := range ops {
		if d := time.Until(o.due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the op early by the remainder
		}
		jobs <- o
	}
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is the slice of the measured phase that rates and memory are
// computed over, and the interval over which steal is measured.
const window = time.Second

// windowStats are one window's figures.
type windowStats struct {
	rows      int
	completed int
	// avail is the share of the machine's CPU time the hypervisor did not
	// steal during the window (1 on an uncontended host).
	avail float64
}

// phaseStats are the measured phase cut into whole windows by
// completion time, plus every successful request's latency and time to
// first point (ms, from the send), each scaled by the unstolen CPU share
// of the window it completed in.
type phaseStats struct {
	ws        []windowStats
	lat, ttfp []float64
}

func (ph *phase) stats() phaseStats {
	nw := max(1, int(ph.wall/window))
	st := phaseStats{ws: make([]windowStats, nw)}
	for i := range st.ws {
		a, z := ph.start.Add(time.Duration(i)*window), ph.start.Add(time.Duration(i+1)*window)
		st.ws[i].avail = availShare(ph.stealAt(z)-ph.stealAt(a), window)
	}
	for i := range ph.results {
		r := &ph.results[i]
		if !r.ok() {
			continue
		}
		wi := int(r.done.Sub(ph.start) / window)
		if wi < 0 || wi >= nw {
			continue // completions after the last whole window
		}
		x := &st.ws[wi]
		x.completed++
		st.lat = append(st.lat, ms(r.done.Sub(r.sent))*x.avail)
		if r.rows > 0 {
			st.ttfp = append(st.ttfp, ms(r.first.Sub(r.sent))*x.avail)
			x.rows += r.rows
		}
	}
	sort.Float64s(st.lat)
	sort.Float64s(st.ttfp)
	return st
}

// availShare is 1 minus the share of the machine's CPU time stolen over
// an interval, floored so a fully stolen interval cannot divide by 0.
func availShare(stolen, over time.Duration) float64 {
	return math.Max(0.1, 1-float64(stolen)/float64(over)/float64(runtime.NumCPU()))
}

// medianOver is the median of f over the windows, skipping NaN.
func medianOver(ws []windowStats, f func(x *windowStats, i int) float64) float64 {
	var vs []float64
	for i := range ws {
		if v := f(&ws[i], i); !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	sort.Float64s(vs)
	return quantile(vs, 0.5)
}

func sortedQuantile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, p)
}

// endToEnd computes the end-to-end figures. Times are taken from the
// send, in every workload, and scaled by the unstolen CPU share of the
// window they completed in; closed-loop rates are divided by it. On the
// shared host these numbers were taken on, the hypervisor stole 0-50%
// of the machine's CPU time in a window, and without the adjustment a
// run's figures tracked the neighbours' load, not the daemon's (see
// NOTES.md). CPU time is charged only while running, so cpu_ms_per_req
// needs no adjustment. Rates, CPU and memory are medians over the
// windows, so a burst moves one or two windows and not the run's
// figure.
//
// The 99th percentiles are printed but kept out of the bounded result:
// a stolen millisecond lands whole on a request, so the tail grew 2-3x
// in windows with 30% steal, far more than any scaling undoes.
func endToEnd(rep *report, w *workload, ph *phase, setups []float64) {
	sort.Float64s(setups)
	rep.add("setup_s", quantile(setups, 0.5), "s", len(setups))
	st := ph.stats()
	ws := st.ws
	rep.add("latency_p50_ms", quantile(st.lat, 0.5), "ms", len(st.lat))
	rep.extra("latency_p99_ms", quantile(st.lat, 0.99), "ms", len(st.lat))
	rep.add("throughput_rps", medianOver(ws, func(x *windowStats, _ int) float64 {
		rate := float64(x.completed) / window.Seconds()
		if w.open {
			return rate // set by the schedule, not by the machine
		}
		return rate / x.avail
	}), "req/s", len(st.lat))
	// Time to first point is bounded as a geometric mean, not a median:
	// on stream-rows the median falls between the plain, gzip and delta
	// requests' times, where few requests lie, and it spread 0.15-0.19
	// across seeds against 0.08 for the geometric mean.
	rep.add("ttfp_gmean_ms", geomean(st.ttfp), "ms", len(st.ttfp))
	rep.extra("ttfp_p50_ms", quantile(st.ttfp, 0.5), "ms", len(st.ttfp))
	rep.extra("ttfp_p99_ms", quantile(st.ttfp, 0.99), "ms", len(st.ttfp))
	rep.add("rows_per_s", medianOver(ws, func(x *windowStats, _ int) float64 {
		rate := float64(x.rows) / window.Seconds()
		if w.open {
			return rate
		}
		return rate / x.avail
	}), "rows/s", len(st.ttfp))
	// CPU per answer is pooled over the whole windows: CPU time is not
	// charged while stolen, and a window holds too few stream-rows
	// requests for its own figure to be steady.
	end := ph.start.Add(time.Duration(len(ws)) * window)
	rep.add("cpu_ms_per_req", ms(ph.cpuAt(end)-ph.cpuAt(ph.start))/float64(len(st.lat)), "ms", len(st.lat))
	rep.add("rss_peak_mb", medianOver(ws, func(_ *windowStats, i int) float64 {
		return ph.rssPeakIn(ph.start.Add(time.Duration(i)*window), ph.start.Add(time.Duration(i+1)*window))
	}), "MB", len(ph.samples))
	rep.extra("steal_frac", 1-medianOver(ws, func(x *windowStats, _ int) float64 { return x.avail }), "ratio", len(ws))
}

// perLayer reports the traced run: /metrics deltas over the measured
// phase, the replay's per-call timings, generator validity and the
// tracing overhead.
func perLayer(rep *report, w *workload, ph *phase, ops []*op, ref *reference, tr *tracer, checked int) error {
	var tot, rep1 scrape = scrape{}, scrape{}
	for i := range ph.after {
		for k, v := range ph.after[i].delta(ph.before[i]) {
			tot[k] += v
		}
		if i > 0 { // replicas
			rep1[fmt.Sprint(i)] = ph.after[i].delta(ph.before[i])["heteromixd_requests_total{endpoint=\"enumerate-generic\"}"]
		}
	}
	gauge := func(name string) float64 {
		var v float64
		for _, s := range ph.after {
			v += s.sum(name)
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := tot.sum

	rp, closeRp, err := newReplayer(ref, tr)
	if err != nil {
		return err
	}
	defer closeRp()
	replayed, err := rp.replay(ops, replayBudget)
	if err != nil {
		return err
	}
	st := &rp.st
	medMs := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = ms(d)
		}
		sort.Float64s(xs)
		return quantile(xs, 0.5)
	}

	rep.add("cluster.table_builds", c("heteromixd_kernel_table_builds_total"), "count", 0)
	rep.add("cluster.compile_ms", medMs(st.compile), "ms", len(st.compile))
	rep.add("cluster.points_evaluated", c("heteromixd_generic_points_evaluated_total"), "count", 0)
	rep.add("cluster.points_pruned", c("heteromixd_generic_points_pruned_total"), "count", 0)
	rep.add("cluster.walk_ns_per_point", ratio(float64(st.walkNs), float64(st.walkPts)), "ns", int(st.walkPts))
	rep.add("cluster.frontier_ms", medMs(st.frontier), "ms", len(st.frontier))
	rep.add("cluster.shard_walk_ms", medMs(st.shardWalk), "ms", len(st.shardWalk))
	rep.add("cluster.merge_us", 1000*medMs(st.merge), "us", len(st.merge))
	rep.add("pareto.inserts", float64(st.inserts), "count", 0)
	rep.add("pareto.accepted", float64(st.accepted), "count", 0)
	rep.add("pareto.accept_ratio", ratio(float64(st.accepted), float64(st.inserts)), "ratio", int(st.inserts))
	rep.add("pareto.insert_ns", ratio(float64(st.insertNs), float64(st.inserts)), "ns", int(st.inserts))
	th, tm := c("heteromixd_table_cache_hits_total"), c("heteromixd_table_cache_misses_total")
	rep.add("tablecache.hits", th, "count", 0)
	rep.add("tablecache.misses", tm, "count", 0)
	rep.add("tablecache.hit_ratio", ratio(th, th+tm), "ratio", int(th+tm))
	rep.add("tablecache.evictions", c("heteromixd_table_cache_evictions_total"), "count", 0)
	rep.add("tablecache.bytes", gauge("heteromixd_table_cache_bytes"), "bytes", 0)
	ch, cm := c("heteromixd_cache_hits_total"), c("heteromixd_cache_misses_total")
	rep.add("servercache.hits", ch, "count", 0)
	rep.add("servercache.misses", cm, "count", 0)
	rep.add("servercache.hit_ratio", ratio(ch, ch+cm), "ratio", int(ch+cm))
	rep.add("servercache.collapsed", c("heteromixd_cache_collapsed_total"), "count", 0)
	rep.add("servercache.evictions", c("heteromixd_cache_evictions_total"), "count", 0)
	rep.add("servercache.do_ns", ratio(float64(st.cacheDo), float64(st.cacheOps)), "ns", st.cacheOps)
	rep.add("model.evaluate_us", 1000*medMs(st.evaluate), "us", len(st.evaluate))
	rep.add("calib.refits", c("heteromixd_calib_refits_total"), "count", 0)
	rep.add("calib.invalidations", c("heteromixd_calib_invalidations_total"), "count", 0)
	rep.add("calib.refit_ms", medMs(st.refit), "ms", len(st.refit))
	sr, sf := c("heteromixd_stream_rows_total"), c("heteromixd_stream_flushes_total")
	rep.add("stream.rows", sr, "count", 0)
	rep.add("stream.flushes", sf, "count", 0)
	rep.add("stream.rows_per_flush", ratio(sr, sf), "ratio", int(sf))
	rep.add("stream.encode_ns_per_row", ratio(float64(st.encodeNs), float64(st.encodeRows)), "ns", st.encodeRows)
	rep.add("stream.bytes_per_row", ratio(float64(st.encodeBytes), float64(st.encodeRows)), "bytes", st.encodeRows)
	rep.add("stream.write_ms", medMs(st.write), "ms", len(st.write))
	rep.add("delta.hits", c("heteromixd_delta_hits_total"), "count", 0)
	rep.add("delta.misses", c("heteromixd_delta_misses_total"), "count", 0)
	rep.add("delta.ops", c("heteromixd_delta_adds_total")+c("heteromixd_delta_dels_total"), "count", 0)
	rep.add("delta.diff_us", 1000*medMs(st.diff), "us", len(st.diff))
	var gzWire, gzRaw int64
	for i := range ph.results {
		if r := &ph.results[i]; r.op.gzip && r.ok() {
			gzWire += r.wire
			gzRaw += r.raw
		}
	}
	rep.add("gzip.raw_mb", float64(gzRaw)/(1<<20), "MB", 0)
	rep.add("gzip.ratio", ratio(float64(gzWire), float64(gzRaw)), "ratio", 0)
	hedges, wins := c("heteromixd_fleet_hedges_total"), c("heteromixd_fleet_hedge_wins_total")
	rep.add("fleet.fanouts", c("heteromixd_fleet_fanouts_total"), "count", 0)
	rep.add("fleet.hedges", hedges, "count", 0)
	rep.add("fleet.hedge_wins", wins, "count", 0)
	rep.add("fleet.hedge_win_ratio", ratio(wins, hedges), "ratio", int(hedges))
	rep.add("fleet.failovers", c("heteromixd_fleet_failovers_total"), "count", 0)
	rep.add("fleet.shard_errors", c("heteromixd_fleet_shard_errors_total"), "count", 0)
	rep.add("fleet.shard_p50_ms", 1000*ph.after[0].delta(ph.before[0]).histQuantile("heteromixd_fleet_shard_latency_seconds", 0.5), "ms", 0)
	var subs, busiest float64
	for _, v := range rep1 {
		subs += v
		busiest = math.Max(busiest, v)
	}
	rep.add("fleet.shard_requests", subs, "count", 0)
	rep.add("fleet.owner_max_share", ratio(busiest, subs), "ratio", int(subs))
	rep.add("server.requests", c("heteromixd_requests_total"), "count", 0)
	rep.add("server.shed", c("heteromixd_rejected_total"), "count", 0)
	rep.add("server.timeouts", c("heteromixd_timeouts_total"), "count", 0)
	rep.add("server.errors", c("heteromixd_request_errors_total"), "count", 0)
	rep.add("server.degraded", c("heteromixd_degraded_responses_total"), "count", 0)

	// The open loop's latency from the due time includes the wait for a
	// free connection behind a stall; it is reported here, beside the
	// pacer's own lateness, because it swings with the host's load.
	var late, due []float64
	completed := 0
	for i := range ph.results {
		r := &ph.results[i]
		if w.open {
			late = append(late, ms(r.late))
		}
		if r.ok() {
			completed++
			if w.open {
				due = append(due, ms(r.done.Sub(r.op.due)))
			}
		}
	}
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return sortedQuantile(xs, p)
	}
	rep.add("loadgen.late_p50_ms", pct(late, 0.5), "ms", len(late))
	rep.add("loadgen.late_p99_ms", pct(late, 0.99), "ms", len(late))
	rep.add("loadgen.due_latency_p50_ms", pct(due, 0.5), "ms", len(due))
	rep.add("loadgen.due_latency_p99_ms", pct(due, 0.99), "ms", len(due))
	rep.add("loadgen.cpu_ms_per_req", ms(ph.genCPU)/float64(max(1, completed)), "ms", completed)
	ps := ph.stats()
	rep.add("env.steal_frac", 1-medianOver(ps.ws, func(x *windowStats, _ int) float64 { return x.avail }), "ratio", len(ps.ws))
	rep.add("tail.latency_p99_ms", quantile(ps.lat, 0.99), "ms", len(ps.lat))
	rep.add("tail.ttfp_p99_ms", quantile(ps.ttfp, 0.99), "ms", len(ps.ttfp))
	rep.add("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	rep.add("answers_checked", float64(checked), "count", 0)
	rep.add("replay.ops", float64(replayed), "count", 0)

	// Tracing overhead: the traced phase's median latency (compare with
	// the untraced run's latency_p50_ms) and the measured cost of the
	// spans it recorded, as a share of the time they bracket.
	rep.add("trace.latency_p50_ms", quantile(ps.lat, 0.5), "ms", len(ps.lat))
	cost := spanCost()
	durs := tr.durations()
	httpSpans := 0
	for _, s := range tr.spans {
		if s.Name == "http" {
			httpSpans++
		}
	}
	rep.add("trace.span_ns", float64(cost), "ns", 0)
	rep.add("trace.overhead_pct", 100*ratio(float64(cost)*float64(httpSpans), float64(durs["http"])), "%", httpSpans)
	self := tr.selfTimes()
	for _, l := range spanLayers {
		rep.add("self_ms."+l, ms(self[l]), "ms", 0)
	}
	return nil
}
