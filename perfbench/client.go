package main

// The HTTP side of the load generator: one exchange per op over a
// dedicated keep-alive connection, with incremental NDJSON/SSE parsing
// so time to first point is taken when the first point row is parsed,
// and optional gzip decoding that counts wire and raw bytes.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Op kinds. A kind is the unit answers are checked and replayed by.
const (
	kPredict  = "predict"
	kBatch    = "batch"
	kFit      = "fit"
	kEnum     = "enumerate"         // 2-type frontier, buffered
	kGeneric  = "enumerate-generic" // N-type frontier, buffered
	kStream2  = "stream-2type"      // 2-type materializing walk, NDJSON
	kStreamN  = "stream-generic"    // N-type materializing walk, NDJSON
	kStreamSE = "stream-sse"        // N-type materializing walk, SSE GET
	kDelta    = "delta"             // N-type frontier delta poll, NDJSON
	kFleet    = "fleet"             // sharded N-type frontier via the coordinator
)

// op is one generated request. The request fields are filled by the
// workload generator; spec carries whatever the reference check and
// the traced replay need to recompute the answer in-process.
type op struct {
	id     int
	kind   string
	method string
	path   string // path and query
	body   []byte
	gzip   bool
	check  bool // sampled for answer checking
	spec   any

	at  time.Duration // open loop: offset of the due time in the phase
	due time.Time     // open loop: due time
	// fitPrev, for writes, is closed when the previous write was
	// acknowledged: writes are sequential, so acknowledgement order is
	// send order.
	fitPrev, fitDone chan struct{}
}

func (o *op) streamed() bool {
	switch o.kind {
	case kStream2, kStreamN, kStreamSE, kDelta:
		return true
	}
	return false
}

// result is one completed exchange.
type result struct {
	op     *op
	status int
	err    error
	// sent is when the request was handed to the connection, first when
	// the first point row was parsed (buffered: the whole body), done
	// when the body was fully read.
	sent, first, done time.Time
	late              time.Duration // open loop: dispatch lateness
	rows              int           // point rows received
	wire, raw         int64         // body bytes on the wire / decoded

	// Kept only for checked ops.
	body          []byte // buffered body
	head, trailer []byte // stream records (JSON payload)
	digest        uint64 // maphash of every point row + '\n'
	streamErr     []byte // in-band error record, if any
	deltaMode     string
	frontier      [][]byte // delta: reconstructed frontier rows
}

// ok reports whether the exchange succeeded at the transport and
// status level (the answer check is separate).
func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK && r.streamErr == nil }

// digestSeed is shared by the wire digests and the reference digests;
// maphash values are only comparable within one process.
var digestSeed = maphash.MakeSeed()

// newClient returns a client whose transport holds exactly one
// keep-alive connection and never negotiates compression on its own
// (gzip is requested explicitly per op so wire bytes can be counted).
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}, Timeout: 60 * time.Second}
}

// deltaState is the client's copy of each delta key's last frontier,
// the predecessor the daemon diffs against.
type deltaState map[string][][]byte

// countingReader counts bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// exchange performs one op and fills a result. ds is the delta state
// of the (single) client issuing delta ops; buf is a reusable buffer.
func exchange(cl *http.Client, base string, o *op, ds deltaState, buf *bytes.Buffer) result {
	res := result{op: o}
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, base+o.path, rd)
	if err != nil {
		res.err = err
		return res
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if o.kind != kStreamSE && o.streamed() {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	if o.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	res.sent = time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	wire := &countingReader{r: resp.Body}
	var body io.Reader = wire
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(wire)
		if err != nil {
			res.err = err
			res.done = time.Now()
			return res
		}
		defer zr.Close()
		body = zr
	}
	raw := &countingReader{r: body}
	if o.streamed() && resp.StatusCode == http.StatusOK {
		res.err = readStream(raw, o, &res, ds)
	} else {
		buf.Reset()
		_, res.err = buf.ReadFrom(raw)
		res.first = time.Now()
		res.rows = bodyRows(o.kind, buf.Bytes())
		if o.check || resp.StatusCode != http.StatusOK {
			res.body = append([]byte(nil), buf.Bytes()...)
		}
	}
	res.done = time.Now()
	res.wire, res.raw = wire.n, raw.n
	return res
}

// bodyRows counts the point rows of a buffered answer: 1 per predict,
// the item count of a batch, "returned" of an enumeration, 0 for a fit.
func bodyRows(kind string, b []byte) int {
	switch kind {
	case kPredict:
		return 1
	case kBatch:
		return bytes.Count(b, []byte(`{"kind":`))
	case kFit:
		return 0
	}
	i := bytes.Index(b, []byte(`"returned":`))
	if i < 0 {
		return 0
	}
	b = b[i+len(`"returned":`):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(b[:j])) // a malformed count shows up in the answer check
	return n
}

// Stream record prefixes (NDJSON envelopes; SSE carries the event name).
var (
	preHead    = []byte(`{"head":`)
	preTrailer = []byte(`{"trailer":`)
	preError   = []byte(`{"error":`)
	preAdd     = []byte(`{"op":"add","point":`)
	preDel     = []byte(`{"op":"del","point":`)
	preProg    = []byte(`{"progress":`)
)

// readStream parses an NDJSON or SSE body record by record.
func readStream(r io.Reader, o *op, res *result, ds deltaState) error {
	br := bufio.NewReaderSize(r, 256<<10)
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var dk string
	var frontier [][]byte
	if o.kind == kDelta {
		dk = o.spec.(*genSpec).deltaKey()
	}
	var adds, dels [][]byte
	onRecord := func(event string, payload []byte) error {
		switch event {
		case "head":
			res.head = append([]byte(nil), payload...)
			if o.kind == kDelta {
				mode, err := headMode(payload)
				if err != nil {
					return err
				}
				res.deltaMode = mode
			}
		case "point":
			if res.rows == 0 {
				res.first = time.Now()
			}
			res.rows++
			if o.kind == kDelta {
				frontier = append(frontier, append([]byte(nil), payload...))
			} else if o.check {
				h.Write(payload)
				h.WriteByte('\n')
			}
		case "add":
			if res.rows == 0 {
				res.first = time.Now()
			}
			res.rows++
			adds = append(adds, append([]byte(nil), payload...))
		case "del":
			if res.rows == 0 {
				res.first = time.Now()
			}
			res.rows++
			dels = append(dels, append([]byte(nil), payload...))
		case "trailer":
			res.trailer = append([]byte(nil), payload...)
		case "error":
			res.streamErr = append([]byte(nil), payload...)
		case "progress":
		default:
			return fmt.Errorf("unknown stream record %q", event)
		}
		return nil
	}
	var err error
	if o.kind == kStreamSE {
		err = readSSE(br, onRecord)
	} else {
		err = readNDJSON(br, onRecord)
	}
	if err != nil {
		return err
	}
	if res.trailer == nil && res.streamErr == nil {
		return fmt.Errorf("stream ended without a trailer")
	}
	res.digest = h.Sum64()
	if o.kind == kDelta {
		switch res.deltaMode {
		case "full":
		case "delta":
			prev, ok := ds[dk]
			if !ok {
				return fmt.Errorf("delta answer without a predecessor for %s", dk)
			}
			frontier = applyDelta(prev, dels, adds)
		default:
			return fmt.Errorf("delta stream mode %q", res.deltaMode)
		}
		if len(adds)+len(dels) > 0 && res.deltaMode != "delta" {
			return fmt.Errorf("delta ops on a %q stream", res.deltaMode)
		}
		ds[dk] = frontier
		if o.check {
			res.frontier = frontier
		}
	}
	return nil
}

func readNDJSON(br *bufio.Reader, on func(event string, payload []byte) error) error {
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		var event string
		var payload []byte
		switch {
		case bytes.HasPrefix(line, preHead):
			event, payload = "head", envelope(line, preHead)
		case bytes.HasPrefix(line, preTrailer):
			event, payload = "trailer", envelope(line, preTrailer)
		case bytes.HasPrefix(line, preError):
			event, payload = "error", envelope(line, preError)
		case bytes.HasPrefix(line, preAdd):
			event, payload = "add", envelope(line, preAdd)
		case bytes.HasPrefix(line, preDel):
			event, payload = "del", envelope(line, preDel)
		case bytes.HasPrefix(line, preProg):
			event, payload = "progress", envelope(line, preProg)
		default:
			event, payload = "point", line
		}
		if e := on(event, payload); e != nil {
			return e
		}
		if err == io.EOF {
			return nil
		}
	}
}

// envelope strips a one-key {"k":...} wrapper.
func envelope(line, prefix []byte) []byte {
	return bytes.TrimSuffix(line[len(prefix):], []byte{'}'})
}

func readSSE(br *bufio.Reader, on func(event string, payload []byte) error) error {
	var event string
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if e := on(event, line[len("data: "):]); e != nil {
				return e
			}
		case len(line) == 0:
			event = ""
		default:
			return fmt.Errorf("malformed SSE line %q", line)
		}
		if err == io.EOF {
			return nil
		}
	}
}

// applyDelta removes dels (as a multiset) from prev, then appends adds.
func applyDelta(prev, dels, adds [][]byte) [][]byte {
	drop := make(map[string]int, len(dels))
	for _, d := range dels {
		drop[string(d)]++
	}
	out := make([][]byte, 0, len(prev)+len(adds))
	for _, p := range prev {
		if drop[string(p)] > 0 {
			drop[string(p)]--
			continue
		}
		out = append(out, p)
	}
	return append(out, adds...)
}
