package main

// Tracing and the traced replay. Spans are recorded by the benchmark's
// own code only: around its HTTP calls and around its in-process calls
// into each layer's public functions, replaying the run's seeded
// inputs. Spans stay in memory and are written out when the run ends;
// self time per layer is a span's duration minus the part of it its
// children cover.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"heteromix/internal/calib"
	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
	"heteromix/internal/servercache"
	"heteromix/internal/shard"
	"heteromix/internal/stream"
	"heteromix/internal/stream/delta"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Req    int    `json:"req"` // the op the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans; nil disables tracing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its closer.
func (t *tracer) begin(name string, parent, req int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start})
	t.mu.Unlock()
	return id, func() {
		e := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = e
		t.mu.Unlock()
	}
}

// durations sums span durations by name.
func (t *tracer) durations() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// selfTimes is each span name's total self time: its duration minus the
// union of its children's intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCost measures the cost of recording one span.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		_, end := t.begin("probe", 0, i)
		end()
	}
	return time.Since(start) / n
}

// Layers whose self time the traced run reports, in output order.
var spanLayers = []string{
	"http", "replay", "cluster.compile", "cluster.walk", "cluster.walk_insert", "cluster.frontier",
	"cluster.shard_walk", "cluster.merge", "servercache.do", "model.evaluate", "calib.refit",
	"stream.encode", "stream.write", "delta.diff",
}

// replayStats are the per-layer timings and counts of the replay.
type replayStats struct {
	compile     []time.Duration
	walkNs      time.Duration
	walkPts     uint64
	insertNs    time.Duration // walk+insert minus walk, summed
	inserts     uint64
	accepted    uint64
	frontier    []time.Duration
	shardWalk   []time.Duration
	merge       []time.Duration
	cacheDo     time.Duration // self time of Cache.Do
	cacheOps    int
	evaluate    []time.Duration
	refit       []time.Duration
	encodeNs    time.Duration
	encodeRows  int
	encodeBytes int
	write       []time.Duration
	diff        []time.Duration
}

// replayer replays a run's ops in-process through the layers' public
// functions, recording one root span per op with a child per call.
type replayer struct {
	ref   *reference
	tr    *tracer
	st    replayStats
	cache *servercache.Cache
	sink  net.Conn
	prev  map[string][][]byte
	// tables are the predict replay's compiled 2-type tables.
	tables map[string]*cluster.Table
}

func newReplayer(ref *reference, tr *tracer) (*replayer, func(), error) {
	// The stream layer writes into a real loopback socket whose far end
	// discards, as the daemon writes into its client connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c) // ends when the writer closes
		c.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return nil, nil, err
	}
	rp := &replayer{ref: ref, tr: tr, cache: servercache.New(4096), sink: conn,
		prev: map[string][][]byte{}, tables: map[string]*cluster.Table{}}
	return rp, func() { conn.Close(); ln.Close(); <-done }, nil
}

// timed runs f inside a child span and returns its duration.
func (rp *replayer) timed(name string, parent, req int, f func() error) (time.Duration, error) {
	_, end := rp.tr.begin(name, parent, req)
	start := time.Now()
	err := f()
	d := time.Since(start)
	end()
	return d, err
}

// replay runs ops until the budget is spent.
func (rp *replayer) replay(ops []*op, budget time.Duration) (int, error) {
	deadline := time.Now().Add(budget)
	n := 0
	for _, o := range ops {
		if time.Now().After(deadline) {
			break
		}
		root, end := rp.tr.begin("replay", 0, o.id)
		err := rp.one(o, root)
		end()
		if err != nil {
			return n, fmt.Errorf("replaying %s #%d: %w", o.kind, o.id, err)
		}
		n++
	}
	return n, nil
}

func (rp *replayer) one(o *op, root int) error {
	switch o.kind {
	case kPredict, kBatch:
		for _, ps := range readSpecs(o) {
			if err := rp.predict(ps, root, o.id); err != nil {
				return err
			}
		}
		return nil
	case kFit:
		fs := o.spec.(*fitSpec)
		spec, err := hwsim.ByName(fs.node)
		if err != nil {
			return err
		}
		base, err := rp.ref.suite.Model(fs.workload, spec)
		if err != nil {
			return err
		}
		d, err := rp.timed("calib.refit", root, o.id, func() error {
			_, _, err := calib.Refit(base, fs.samples)
			return err
		})
		rp.st.refit = append(rp.st.refit, d)
		delete(rp.tables, fs.workload)
		return err
	case kGeneric, kFleet, kDelta:
		return rp.genericFrontier(o, root)
	case kStreamN, kStreamSE:
		return rp.genericStream(o, root)
	case kEnum, kStream2:
		return rp.two(o, root)
	}
	return fmt.Errorf("no replay for kind %q", o.kind)
}

// predict replays one key through Cache.Do, evaluating on a miss. A
// workload's table is compiled on first use and again after each of its
// writes, as the daemon recompiles after a refit.
func (rp *replayer) predict(ps *predictSpec, root, req int) error {
	tbl, ok := rp.tables[ps.req.Workload]
	if !ok {
		sp, err := rp.ref.suite.Space(ps.req.Workload)
		if err != nil {
			return err
		}
		d, err := rp.timed("cluster.compile", root, req, func() error {
			tbl, err = sp.NewTable()
			return err
		})
		if err != nil {
			return err
		}
		rp.st.compile = append(rp.st.compile, d)
		rp.tables[ps.req.Workload] = tbl
	}
	key := string(mustJSON(ps.req))
	doID, end := rp.tr.begin("servercache.do", root, req)
	start := time.Now()
	var evalTime time.Duration
	_, _, err := rp.cache.Do(key, func() (any, error) {
		var body []byte
		d, err := rp.timed("model.evaluate", doID, req, func() error {
			var err error
			body, err = predictBody(tbl, ps)
			return err
		})
		evalTime = d
		rp.st.evaluate = append(rp.st.evaluate, d)
		return body, err
	})
	rp.st.cacheDo += time.Since(start) - evalTime
	end()
	rp.st.cacheOps++
	return err
}

// walkAndInsert times an empty-yield walk and the same walk feeding an
// online frontier; the difference is the frontier insert cost.
func (rp *replayer) walkAndInsert(root, req int, forEach func(yield func(te pareto.TE) bool) error) error {
	var pts uint64
	dWalk, err := rp.timed("cluster.walk", root, req, func() error {
		return forEach(func(pareto.TE) bool { pts++; return true })
	})
	if err != nil {
		return err
	}
	var f pareto.OnlineFrontier
	var ins, acc uint64
	dIns, err := rp.timed("cluster.walk_insert", root, req, func() error {
		var insErr error
		err := forEach(func(te pareto.TE) bool {
			_, _, added, err := f.Insert(te)
			if err != nil {
				insErr = err
				return false
			}
			ins++
			if added {
				acc++
			}
			return true
		})
		if err != nil {
			return err
		}
		return insErr
	})
	if err != nil {
		return err
	}
	rp.st.walkNs += dWalk
	rp.st.walkPts += pts
	if dIns > dWalk {
		rp.st.insertNs += dIns - dWalk
	}
	rp.st.inserts += ins
	rp.st.accepted += acc
	return nil
}

func (rp *replayer) compileGeneric(s *genSpec, root, req int) (full, pruned *cluster.GenericTable, names []string, err error) {
	types, names, err := rp.ref.groupTypes(s)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := rp.timed("cluster.compile", root, req, func() error {
		var err error
		full, pruned, err = compileGeneric(types)
		return err
	})
	rp.st.compile = append(rp.st.compile, d)
	return full, pruned, names, err
}

func (rp *replayer) genericFrontier(o *op, root int) error {
	s := o.spec.(*genSpec)
	_, pruned, names, err := rp.compileGeneric(s, root, o.id)
	if err != nil {
		return err
	}
	if err := rp.walkAndInsert(root, o.id, func(y func(pareto.TE) bool) error {
		return pruned.ForEach(s.work, func(p cluster.GenericPoint) bool {
			return y(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)})
		})
	}); err != nil {
		return err
	}
	var pts []cluster.GenericPoint
	d, err := rp.timed("cluster.frontier", root, o.id, func() error {
		var err error
		pts, _, err = pruned.FrontierParallel(s.work, 0)
		return err
	})
	if err != nil {
		return err
	}
	rp.st.frontier = append(rp.st.frontier, d)
	switch o.kind {
	case kFleet:
		parts := make([]cluster.ShardFrontier[cluster.GenericPoint], s.shards)
		for i := range parts {
			d, err := rp.timed("cluster.shard_walk", root, o.id, func() error {
				var err error
				parts[i], err = pruned.FrontierShard(s.work, shard.Shard{Index: i, Count: s.shards})
				return err
			})
			if err != nil {
				return err
			}
			rp.st.shardWalk = append(rp.st.shardWalk, d)
		}
		d, err := rp.timed("cluster.merge", root, o.id, func() error {
			_, err := cluster.MergeShardFrontiers(parts)
			return err
		})
		if err != nil {
			return err
		}
		rp.st.merge = append(rp.st.merge, d)
	case kDelta:
		rows := make([][]byte, len(pts))
		for i := range pts {
			sum := pts[i].Summary(names)
			rows[i] = stream.AppendGenericPointSummary(nil, &sum)
		}
		key := s.deltaKey()
		if prev, ok := rp.prev[key]; ok {
			d, _ := rp.timed("delta.diff", root, o.id, func() error { delta.Diff(prev, rows); return nil })
			rp.st.diff = append(rp.st.diff, d)
		}
		rp.prev[key] = rows
	}
	return nil
}

// walkEncodeWrite replays a limited materializing walk in three timed
// steps: the walk alone with an empty yield, the same walk producing
// each row's wire encoding (summary plus Append*PointSummary; the time
// over the bare walk is the encode cost), and the stream writer
// shipping the rows into the loopback socket.
func (rp *replayer) walkEncodeWrite(root, req, limit int, walk func(yield func() bool) error, encode func(yield func(row []byte) bool) error) error {
	n := 0
	dWalk, err := rp.timed("cluster.walk", root, req, func() error {
		return walk(func() bool { n++; return n < limit })
	})
	if err != nil {
		return err
	}
	var rows [][]byte
	dEnc, err := rp.timed("stream.encode", root, req, func() error {
		return encode(func(r []byte) bool { rows = append(rows, r); return len(rows) < limit })
	})
	if err != nil {
		return err
	}
	rp.st.walkNs += dWalk
	rp.st.walkPts += uint64(n)
	if dEnc > dWalk {
		rp.st.encodeNs += dEnc - dWalk
	}
	rp.st.encodeRows += len(rows)
	for _, r := range rows {
		rp.st.encodeBytes += len(r) + 1
	}
	d, err := rp.timed("stream.write", root, req, func() error {
		w := stream.NewWriter(rp.sink, nil, stream.NDJSON, stream.Policy{})
		for _, r := range rows {
			if err := w.Record(stream.EventPoint, func(b []byte) []byte { return append(b, r...) }); err != nil {
				return err
			}
		}
		return w.Close()
	})
	rp.st.write = append(rp.st.write, d)
	return err
}

func (rp *replayer) genericStream(o *op, root int) error {
	s := o.spec.(*genSpec)
	full, _, names, err := rp.compileGeneric(s, root, o.id)
	if err != nil {
		return err
	}
	return rp.walkEncodeWrite(root, o.id, s.limit,
		func(y func() bool) error {
			return full.ForEach(s.work, func(cluster.GenericPoint) bool { return y() })
		},
		func(y func([]byte) bool) error {
			return full.ForEach(s.work, func(p cluster.GenericPoint) bool {
				sum := p.Summary(names)
				return y(stream.AppendGenericPointSummary(nil, &sum))
			})
		})
}

func (rp *replayer) two(o *op, root int) error {
	s := o.spec.(*twoSpec)
	sp, err := rp.ref.suite.Space(s.workload)
	if err != nil {
		return err
	}
	var tbl *cluster.Table
	d, err := rp.timed("cluster.compile", root, o.id, func() error {
		var err error
		tbl, err = sp.NewTable()
		return err
	})
	if err != nil {
		return err
	}
	rp.st.compile = append(rp.st.compile, d)
	if o.kind == kEnum {
		if err := rp.walkAndInsert(root, o.id, func(y func(pareto.TE) bool) error {
			return tbl.ForEach(s.maxARM, s.maxAMD, s.work, func(p cluster.Point) bool {
				return y(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)})
			})
		}); err != nil {
			return err
		}
		d, err := rp.timed("cluster.frontier", root, o.id, func() error {
			_, _, err := tbl.Frontier(s.maxARM, s.maxAMD, s.work)
			return err
		})
		rp.st.frontier = append(rp.st.frontier, d)
		return err
	}
	return rp.walkEncodeWrite(root, o.id, s.limit,
		func(y func() bool) error {
			return tbl.ForEach(s.maxARM, s.maxAMD, s.work, func(cluster.Point) bool { return y() })
		},
		func(y func([]byte) bool) error {
			return tbl.ForEach(s.maxARM, s.maxAMD, s.work, func(p cluster.Point) bool {
				sum := p.Summary()
				return y(stream.AppendPointSummary(nil, &sum))
			})
		})
}
