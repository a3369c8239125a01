package servercache

// Deflated byte values. Enumeration bodies run to tens of kilobytes of
// JSON and deflate about 5x at the fastest level, so the cache holds
// every []byte value of packMinBytes or more deflated: the same entries
// in a fraction of the memory, for one deflate per insert and one
// inflate per read. Predict-sized bodies stay raw, where an inflate
// would cost more than the bytes it saves. Packing is invisible to
// callers: reads return the raw bytes, and the byte accounting (Bytes,
// SetMaxBytes) counts a value's raw length either way.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// packMinBytes is the smallest []byte value the cache holds deflated.
const packMinBytes = 2 << 10

// packed is a deflated []byte value: the raw length as a uvarint, then
// the DEFLATE stream.
type packed []byte

// flateWriters and flateReaders recycle the codec state (about 1.2 MB
// per writer and 44 KB per reader, the dominant cost of making one).
var (
	flateWriters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	}}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
)

// pack returns the form the cache holds val in: a []byte of
// packMinBytes or more deflated, anything else as it is.
func pack(val any) any {
	b, ok := val.([]byte)
	if !ok || len(b) < packMinBytes {
		return val
	}
	var buf bytes.Buffer
	buf.Grow(len(b)/4 + binary.MaxVarintLen64)
	buf.Write(binary.AppendUvarint(nil, uint64(len(b))))
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&buf)
	w.Write(b) // a bytes.Buffer never fails a write
	w.Close()
	w.Reset(io.Discard)
	flateWriters.Put(w)
	return packed(bytes.Clone(buf.Bytes()))
}

// unpack returns the value a held form stands for: it inflates a
// packed value and passes anything else through.
func unpack(val any) any {
	p, ok := val.(packed)
	if !ok {
		return val
	}
	n, k := binary.Uvarint(p)
	b := make([]byte, n)
	r := flateReaders.Get().(io.ReadCloser)
	r.(flate.Resetter).Reset(bytes.NewReader(p[k:]), nil)
	_, err := io.ReadFull(r, b)
	flateReaders.Put(r)
	if err != nil {
		// Packed values never leave the process, so this is a bug.
		panic(fmt.Sprintf("servercache: corrupt packed value: %v", err))
	}
	return b
}
