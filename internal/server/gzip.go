package server

// Pooled gzip for the large response paths. Buffered enumeration
// bodies compress at write time — the cache hands back the uncompressed
// bytes, so one cached entry serves both encodings — and streamed
// responses interpose the same pooled writer between the chunk buffer
// and the connection, flushing a gzip frame at every chunk boundary so
// compression never re-buffers the stream.

import (
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// gzipMinBytes is the smallest buffered body worth compressing: below
// this the header overhead and writer reset cost more than the wire
// bytes saved.
const gzipMinBytes = 1 << 10

// gzipPool recycles gzip writers (their window and huffman state is
// ~256KB per writer, the dominant cost of cold construction).
var gzipPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	return zw
}}

func gzipGet(dst io.Writer) *gzip.Writer {
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(dst)
	return zw
}

func gzipPut(zw *gzip.Writer) {
	zw.Reset(io.Discard)
	gzipPool.Put(zw)
}

// acceptsGzip parses Accept-Encoding properly enough to honor q-values:
// "gzip;q=0" is a refusal, not an acceptance, and a bare "*" admits it.
// Anything unparseable is treated as not accepting — the uncompressed
// response is always correct.
func acceptsGzip(r *http.Request) bool {
	accept := false
	for _, field := range r.Header.Values("Accept-Encoding") {
		for _, part := range strings.Split(field, ",") {
			name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
			name = strings.ToLower(strings.TrimSpace(name))
			if name != "gzip" && name != "*" {
				continue
			}
			q := 1.0
			for _, p := range strings.Split(params, ";") {
				k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
				if ok && strings.EqualFold(strings.TrimSpace(k), "q") {
					if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
						q = f
					}
				}
			}
			if name == "gzip" {
				// An explicit gzip entry wins over any wildcard.
				return q > 0
			}
			accept = q > 0
		}
	}
	return accept
}

// writeBody is writeRaw for the enumeration endpoints, whose bodies
// are the ones large enough to be worth compressing: a client that
// accepts gzip and a body past the threshold get a pooled compress at
// write time; everyone else gets the raw bytes.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, body []byte, cached bool) {
	h := w.Header()
	h.Add("Vary", "Accept-Encoding")
	if len(body) < gzipMinBytes || !acceptsGzip(r) {
		writeRaw(w, body, cached)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Encoding", "gzip")
	if cached {
		h.Set("X-Cache", "hit")
	} else {
		h.Set("X-Cache", "miss")
	}
	zw := gzipGet(w)
	zw.Write(body)
	zw.Close()
	gzipPut(zw)
}
