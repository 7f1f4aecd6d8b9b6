package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/mining"
)

// maxIngestBody bounds one POST /v1/append body (16 MiB), and
// maxIngestLine one line of it (1 MiB, newline included).
const (
	maxIngestBody = 16 << 20
	maxIngestLine = 1 << 20
)

// Handler returns the HTTP/JSON query and ingest surface:
//
//	GET  /v1/rules?k=&by=&minconf=&antecedent=   top-k rules
//	GET  /v1/support?items=1,2                   itemset support lookup
//	GET  /v1/recommend?items=1,2&k=              per-antecedent recommendation
//	GET  /v1/stats                               server counters
//	GET  /v1/canonical                           canonical result bytes
//	GET  /v1/healthz                             liveness
//	GET  /v1/readyz                              readiness (503 until recovered)
//	POST /v1/append                              basket lines to enqueue
//	POST /v1/delete?tid=N                        enqueue one delete
//	POST /v1/flush                               drain queue, maintain, publish
//
// Query errors map to 400, everything else to 500; responses are JSON.
// The read endpoints (rules, support, recommend) take their parameters
// from one scan of the raw query and append their reply, byte for byte
// what encoding/json would write, into a pooled buffer sent with one
// Write. Every handler runs behind a panic-recovery middleware: a
// panicking handler produces a 500 and bumps Stats.Panics instead of
// killing the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/rules", s.handleRules)
	mux.HandleFunc("GET /v1/support", s.handleSupport)
	mux.HandleFunc("GET /v1/recommend", s.handleRecommend)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/canonical", s.handleCanonical)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/append", s.handleAppend)
	mux.HandleFunc("POST /v1/delete", s.handleDelete)
	mux.HandleFunc("POST /v1/flush", s.handleFlush)
	return s.recoverPanics(mux)
}

// recoverPanics is the middleware keeping one bad handler (or one
// poisoned request) from taking the whole serving process down: the
// panic is swallowed, the client gets a 500, and Stats.Panics counts it.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				// Best-effort 500: if the handler already wrote a status,
				// this is a no-op beyond the log line net/http would emit.
				writeError(w, fmt.Errorf("serve: handler panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleReadyz serves GET /v1/readyz: 200 once startup (WAL recovery,
// tail replay, first publish) finished, 503 before. Load balancers gate
// traffic on this; liveness probes use /v1/healthz, which is green the
// moment the process accepts connections.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "recovering"})
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// handleCanonical serves GET /v1/canonical: the current view's canonical
// result bytes (the deterministic encoding every byte-identity check in
// this repo compares), with the view's version and op count in headers.
// The crash-recovery CI gate diffs this against a from-scratch mine.
func (s *Server) handleCanonical(w http.ResponseWriter, r *http.Request) {
	v := s.View()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Serve-Version", strconv.FormatUint(v.Version(), 10))
	w.Header().Set("X-Serve-Ops", strconv.FormatUint(v.Ops(), 10))
	w.Write(v.Canonical())
}

// StartingHandler is the bootstrap surface a command serves while the
// real server is still recovering its WAL: liveness is green, readiness
// and everything else answer 503. Swapping it for Server.Handler once
// New returns gives probes an honest view of a long replay without
// delaying the listen socket.
func StartingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "recovering"})
	})
	return mux
}

// The slow-client guards of NewHTTPServer. Without them a client
// trickling header bytes forever (slowloris) pins a connection per drip.
const (
	readHeaderTimeout = 5 * time.Second   // request-header reads
	readTimeout       = 60 * time.Second  // the whole request, ingest bodies included
	idleTimeout       = 120 * time.Second // keep-alive idleness between requests
)

// NewHTTPServer wraps h in an http.Server with the slowloris guards
// applied. Write deadlines are left off deliberately: flush and append
// calls legitimately block on maintenance under load, and the read-side
// timeouts already bound a malicious peer.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeError maps an error to its status code and a JSON error body.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadQuery):
		code = http.StatusBadRequest
	case errors.Is(err, ErrServerClosed):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleRules serves GET /v1/rules.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	q, err := parseRawRulesQuery(r.URL.RawQuery)
	if err != nil {
		writeError(w, err)
		return
	}
	v := s.View()
	writeRules(w, v, s.topRulesOn(v, q))
}

// handleSupport serves GET /v1/support.
func (s *Server) handleSupport(w http.ResponseWriter, r *http.Request) {
	items, err := ParseItems(queryParams(r.URL.RawQuery, "items")[0])
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.ItemsetSupport(items...)
	if err != nil {
		writeError(w, err)
		return
	}
	buf := replyBufs.Get().(*[]byte)
	writeReply(w, buf, appendSupport((*buf)[:0], &res))
}

// handleRecommend serves GET /v1/recommend.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	vals := queryParams(r.URL.RawQuery, "items", "k")
	items, err := ParseItems(vals[0])
	if err != nil {
		writeError(w, err)
		return
	}
	k := 0
	if raw := vals[1]; raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil {
			writeError(w, fmt.Errorf("%w: k=%q: %v", ErrBadQuery, raw, err))
			return
		}
	}
	v := s.View()
	rules, err := s.recommendOn(v, items, k)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRules(w, v, rules)
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// handleAppend serves POST /v1/append: the body is basket lines
// (whitespace-separated item ids, one transaction per line), each one
// OpAppend. The whole body is parsed first and then enqueued as one queue
// entry, persisted with one sync and acknowledged once, so the request is
// all or nothing: a malformed line anywhere answers 400, and a log
// failure, or a context that ends before the entry is queued, answers an
// error, each with no line applied — a client may resend the body without
// duplicating a prefix. The enqueue respects the request context, so a
// client timeout unblocks a full queue's backpressure; one that ends
// while waiting for the ack leaves the whole body in flight.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var ops []Op
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	sc.Buffer(nil, maxIngestLine) // start small and grow: most bodies are a few lines
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		items, err := ParseItems(line)
		if err != nil {
			writeError(w, err)
			return
		}
		if len(items) == 0 {
			continue
		}
		ops = append(ops, Op{Kind: OpAppend, Items: items})
	}
	if err := sc.Err(); err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadQuery, err))
		return
	}
	if len(ops) > 0 {
		if err := s.enqueue(r.Context(), ops); err != nil {
			writeError(w, err)
			return
		}
	}
	writeEnqueued(w, len(ops))
}

// handleDelete serves POST /v1/delete?tid=N.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	raw := queryParams(r.URL.RawQuery, "tid")[0]
	tid, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, fmt.Errorf("%w: tid=%q: %v", ErrBadQuery, raw, err))
		return
	}
	if tid < 0 {
		writeError(w, fmt.Errorf("%w: negative tid %d", ErrBadQuery, tid))
		return
	}
	if err := s.Enqueue(r.Context(), Op{Kind: OpDelete, TID: tid}); err != nil {
		writeError(w, err)
		return
	}
	writeEnqueued(w, 1)
}

// writeEnqueued writes the write handlers' reply, the bytes writeJSON
// writes for map[string]int{"enqueued": n}, without the map or an encoder.
func writeEnqueued(w http.ResponseWriter, n int) {
	w.Header().Set("Content-Type", "application/json")
	var buf [32]byte
	b := append(buf[:0], `{"enqueued":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	w.Write(append(b, "}\n"...))
}

// replyBufs pools the read handlers' reply buffers. It holds *[]byte, so
// a Put stores a pointer and allocates nothing. A new buffer starts at
// 4 KiB, room for a default top-10 answer several times over.
var replyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// maxPooledReply is the capacity above which a reply buffer goes back to
// the garbage collector, not to replyBufs, so one k=10000 answer cannot
// pin its buffer for every later request.
const maxPooledReply = 64 << 10

// writeRules writes the rule endpoints' reply, {"version", "num_tx",
// "rules"} of view v, through writeReply.
func writeRules(w http.ResponseWriter, v *View, rules []mining.Rule) {
	buf := replyBufs.Get().(*[]byte)
	writeReply(w, buf, appendRules((*buf)[:0], v.version, v.numTx, rules))
}

// writeReply sends b, a JSON value appended into the pooled buffer buf,
// with writeJSON's header and trailing newline in one Write, and returns
// the buffer to the pool unless it grew past maxPooledReply.
func writeReply(w http.ResponseWriter, buf *[]byte, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	b = append(b, '\n')
	w.Write(b)
	if cap(b) <= maxPooledReply {
		*buf = b[:0]
		replyBufs.Put(buf)
	}
}

// maxNumLen bounds the bytes of one JSON number the appenders write: an
// int64 takes at most 20, a float64 at most 25 ("-0.0000012345678901234567").
// Each appender first makes room for the most it can write, with one
// explicit make when the buffer is short, so none of its appends grows
// the buffer again; invcheck's allocbound checks exactly that shape.
const maxNumLen = 32

// appendRules appends the rule endpoints' reply as encoding/json writes
// {"version":…,"num_tx":…,"rules":[…]}: the rules in order, "[]" when
// there are none.
//
//invcheck:hotpath
func appendRules(b []byte, version uint64, numTx int, rules []mining.Rule) []byte {
	if need := 64 + 2*maxNumLen; cap(b)-len(b) < need {
		old := b
		b = make([]byte, len(old), 2*cap(old)+need)
		copy(b, old)
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, `,"num_tx":`...)
	b = strconv.AppendInt(b, int64(numTx), 10)
	b = append(b, `,"rules":[`...)
	for i := range rules {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRule(b, &rules[i])
	}
	return append(b, "]}"...)
}

// appendRule appends one rule as encoding/json writes it in the rule
// endpoints' reply: {"antecedent","consequent","support","confidence",
// "lift"}, in that order.
//
//invcheck:hotpath
func appendRule(b []byte, r *mining.Rule) []byte {
	if need := 96 + 3*maxNumLen; cap(b)-len(b) < need {
		old := b
		b = make([]byte, len(old), 2*cap(old)+need)
		copy(b, old)
	}
	b = append(b, `{"antecedent":`...)
	b = appendJSONInts(b, r.Antecedent)
	b = append(b, `,"consequent":`...)
	b = appendJSONInts(b, r.Consequent)
	b = append(b, `,"support":`...)
	b = strconv.AppendInt(b, int64(r.Support), 10)
	b = append(b, `,"confidence":`...)
	b = appendJSONFloat(b, r.Confidence)
	b = append(b, `,"lift":`...)
	b = appendJSONFloat(b, r.Lift)
	return append(b, '}')
}

// appendSupport appends res as encoding/json writes a SupportResult.
//
//invcheck:hotpath
func appendSupport(b []byte, res *SupportResult) []byte {
	if need := 96 + 3*maxNumLen; cap(b)-len(b) < need {
		old := b
		b = make([]byte, len(old), 2*cap(old)+need)
		copy(b, old)
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendUint(b, res.Version, 10)
	b = append(b, `,"items":`...)
	b = appendJSONInts(b, res.Items)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(res.Count), 10)
	b = append(b, `,"num_tx":`...)
	b = strconv.AppendInt(b, int64(res.NumTx), 10)
	b = append(b, `,"frequent":`...)
	b = strconv.AppendBool(b, res.Frequent)
	return append(b, '}')
}

// appendJSONInts appends items as encoding/json writes an []int: null for
// a nil slice, else the ids in brackets. It does not share appendItems,
// which writes cache keys into a small stack buffer that this worst-case
// reservation would move to the heap.
//
//invcheck:hotpath
func appendJSONInts(b []byte, items []int) []byte {
	if need := 2 + (maxNumLen+1)*len(items); cap(b)-len(b) < need {
		old := b
		b = make([]byte, len(old), 2*cap(old)+need)
		copy(b, old)
	}
	if items == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(it), 10)
	}
	return append(b, ']')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent cut to one digit (e-07 becomes e-7). f must
// be finite: encoding/json refuses NaN and ±Inf, and no published rule
// holds one.
//
//invcheck:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// handleFlush serves POST /v1/flush.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	v, err := s.Flush(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"version": v.Version(),
		"num_tx":  v.NumTx(),
		"ops":     v.Ops(),
	})
}
