package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/mining"
)

// maxIngestBody bounds one POST /v1/append body (16 MiB), and
// maxIngestLine one line of it (1 MiB, newline included).
const (
	maxIngestBody = 16 << 20
	maxIngestLine = 1 << 20
)

// ruleJSON is the wire form of one rule.
type ruleJSON struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// rulesResponse is the wire form of the rule-query endpoints.
type rulesResponse struct {
	Version uint64     `json:"version"`
	NumTx   int        `json:"num_tx"`
	Rules   []ruleJSON `json:"rules"`
}

// toRuleJSON adapts the facade rules to the wire form.
func toRuleJSON(rules []mining.Rule) []ruleJSON {
	out := make([]ruleJSON, len(rules))
	for i, r := range rules {
		out[i] = ruleJSON{
			Antecedent: r.Antecedent,
			Consequent: r.Consequent,
			Support:    r.Support,
			Confidence: r.Confidence,
			Lift:       r.Lift,
		}
	}
	return out
}

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
// Every handler runs behind a panic-recovery middleware: a panicking
// handler produces a 500 and bumps Stats.Panics instead of killing the
// process.
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
	q, err := ParseRulesQuery(r.URL.Query())
	if err != nil {
		writeError(w, err)
		return
	}
	v := s.View()
	rules, err := s.topRulesOn(v, q)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, rulesResponse{Version: v.version, NumTx: v.numTx, Rules: toRuleJSON(rules)})
}

// handleSupport serves GET /v1/support.
func (s *Server) handleSupport(w http.ResponseWriter, r *http.Request) {
	items, err := ParseItems(r.URL.Query().Get("items"))
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.ItemsetSupport(items...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, res)
}

// handleRecommend serves GET /v1/recommend.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	values := r.URL.Query()
	items, err := ParseItems(values.Get("items"))
	if err != nil {
		writeError(w, err)
		return
	}
	k := 0
	if raw := values.Get("k"); raw != "" {
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
	writeJSON(w, rulesResponse{Version: v.version, NumTx: v.numTx, Rules: toRuleJSON(rules)})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// handleAppend serves POST /v1/append: the body is basket lines
// (whitespace-separated item ids, one transaction per line), each
// enqueued as one OpAppend. The whole body is parsed before anything is
// enqueued, so a malformed line anywhere answers 400 with no line applied
// — a client may fix the body and resend it without duplicating a prefix.
// The enqueue respects the request context, so a client timeout unblocks a
// full queue's backpressure.
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
	for _, op := range ops {
		if err := s.Enqueue(r.Context(), op); err != nil {
			writeError(w, err)
			return
		}
	}
	writeJSON(w, map[string]int{"enqueued": len(ops)})
}

// handleDelete serves POST /v1/delete?tid=N.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("tid")
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
	writeJSON(w, map[string]int{"enqueued": 1})
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
