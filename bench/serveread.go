package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/mining"
)

// respWriter is the harness's http.ResponseWriter: requests reach the
// handler by a direct ServeHTTP call, with no socket, because net/http and
// the kernel were half of a loopback request's time and most of its
// jitter, and neither is this repository's code.
type respWriter struct {
	header http.Header
	code   int
	body   []byte
}

// newRespWriter returns a writer ready for its first request.
func newRespWriter() *respWriter {
	return &respWriter{header: make(http.Header), code: http.StatusOK}
}

// Header implements http.ResponseWriter.
func (w *respWriter) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter.
func (w *respWriter) WriteHeader(code int) { w.code = code }

// Write implements http.ResponseWriter.
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// reset readies the writer for the next request.
func (w *respWriter) reset() {
	clear(w.header)
	w.code = http.StatusOK
	w.body = w.body[:0]
}

// wireRule and wireRules mirror the JSON the rule endpoints answer with.
type wireRule struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

type wireRules struct {
	Version uint64     `json:"version"`
	NumTx   int        `json:"num_tx"`
	Rules   []wireRule `json:"rules"`
}

// toWire converts direct query results to the wire form.
func toWire(rules []mining.Rule, version uint64, numTx int) wireRules {
	out := wireRules{Version: version, NumTx: numTx, Rules: make([]wireRule, len(rules))}
	for i, r := range rules {
		out.Rules[i] = wireRule{r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift}
	}
	return out
}

// checkEvery is how often serve_read keeps a response body for the
// end-of-run comparison with the direct query.
const checkEvery = 1024

// keptBody is one response held for the end-of-run check.
type keptBody struct {
	q    int
	body []byte
}

// serveRead is the serve_read workload: one op is one GET.
type serveRead struct {
	e       *env
	srv     *serve.Server
	nocache *serve.Server // traced run only: the same view with the cache off
	handler http.Handler
	pool    []query
	reqs    []*http.Request
	seq     []uint16 // warm-up ops first, then the measured sequence
	w       *respWriter

	base      serve.Stats // counters when the measured phase starts
	respBytes int64
	kept      []keptBody
	probeHits uint64    // cache hits caused by the traced ops' own probes
	encodeUS  []float64 // traced ops: handler time minus its parse and query probes
}

// serveConfig is the serving tier's configuration in both serve workloads.
func serveConfig(sc scale) serve.Config {
	return serve.Config{
		MinSupport: sc.serveSup,
		RuleFloor:  sc.ruleFloor,
		Options:    []mining.Option{mining.Workers(workers)},
	}
}

// setupServeRead loads the fixture, starts a server over it, draws the
// query pool and the op sequence, and warms the cache up.
func setupServeRead(e *env) (instance, error) {
	fx, db, err := e.loadFixture()
	if err != nil {
		return nil, err
	}
	w := &serveRead{e: e, w: newRespWriter()}
	if err := e.timeStage("serve.new_ms", func() error {
		w.srv, err = serve.New(db, serveConfig(e.sc))
		return err
	}); err != nil {
		return nil, err
	}
	if e.traced {
		cfg := serveConfig(e.sc)
		cfg.CacheSize = -1
		if w.nocache, err = serve.New(db, cfg); err != nil {
			w.close()
			return nil, err
		}
	}
	w.handler = w.srv.Handler()
	w.pool = queryPool(fx.pool, e.sc.queries)
	w.reqs = make([]*http.Request, len(w.pool))
	for i, q := range w.pool {
		if w.reqs[i], err = http.NewRequest(http.MethodGet, q.url, nil); err != nil {
			w.close()
			return nil, err
		}
	}
	w.seq = readSequence(e.z.warmOps+e.totalOps(), len(w.pool), rand.New(rand.NewSource(e.seed)))
	for i := 0; i < e.z.warmOps; i++ {
		if w.get(int(w.seq[i])) != http.StatusOK {
			w.close()
			return nil, fmt.Errorf("warm-up request %s: status %d", w.pool[w.seq[i]].url, w.w.code)
		}
	}
	w.seq = w.seq[e.z.warmOps:]
	w.base = w.srv.Stats()
	return w, nil
}

// get sends query q through the handler and returns the status.
func (w *serveRead) get(q int) int {
	w.w.reset()
	w.handler.ServeHTTP(w.w, w.reqs[q])
	return w.w.code
}

func (w *serveRead) reference() error { return nil }

func (w *serveRead) op(i int, tr *tracer) (time.Duration, bool) {
	q := int(w.seq[i])
	var d time.Duration
	if tr == nil {
		t := time.Now()
		code := w.get(q)
		d = time.Since(t)
		if code != http.StatusOK {
			return d, false
		}
	} else {
		var ok bool
		if d, ok = w.tracedOp(q, tr); !ok {
			return d, false
		}
	}
	w.respBytes += int64(len(w.w.body))
	if i%checkEvery == 0 {
		w.kept = append(w.kept, keptBody{q, append([]byte(nil), w.w.body...)})
	}
	return d, true
}

// answer is what a pool query yields when asked of a server directly.
type answer struct {
	rules   []mining.Rule
	version uint64
	support serve.SupportResult
}

// parse runs the server's own parsers over pool query q and returns the
// query ready to be asked of a server, the way the handler would ask it.
func (w *serveRead) parse(q int) (ask func(*serve.Server) (answer, error), err error) {
	values := w.reqs[q].URL.Query()
	switch w.pool[q].kind {
	case kindRules:
		rq, err := serve.ParseRulesQuery(values)
		return func(s *serve.Server) (a answer, err error) {
			a.rules, a.version, err = s.TopRules(rq)
			return a, err
		}, err
	case kindRecommend:
		items, err := serve.ParseItems(values.Get("items"))
		if err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(values.Get("k"))
		return func(s *serve.Server) (a answer, err error) {
			a.rules, a.version, err = s.Recommend(items, k)
			return a, err
		}, err
	default:
		items, err := serve.ParseItems(values.Get("items"))
		return func(s *serve.Server) (a answer, err error) {
			a.support, err = s.ItemsetSupport(items...)
			return a, err
		}, err
	}
}

// tracedOp is the op with spans. From outside, the handler is one call;
// its stages are timed by calling the same public functions the handler
// calls, directly, right after it and outside the op: the parse, and the
// query on the side the handler's own lookup fell (a hit is replayed on
// the server, where the entry the handler just touched is still at the
// front of the LRU, so the replay changes no eviction order; a miss is
// replayed on a twin server with the cache off). What is left of the
// handler's time is routing and encoding.
func (w *serveRead) tracedOp(q int, tr *tracer) (time.Duration, bool) {
	hits := w.srv.Stats().CacheHits
	tr.begin(rootSpan)
	tr.begin("serve.handler")
	code := w.get(q)
	handler := tr.end()
	d := tr.end()
	if code != http.StatusOK {
		return d, false
	}
	wasHit := w.srv.Stats().CacheHits > hits
	tr.begin("serve.parse")
	ask, err := w.parse(q)
	staged := tr.end()
	if err != nil {
		return d, false
	}
	switch {
	case w.pool[q].kind == kindSupport:
		tr.begin("serve.support")
		_, err = ask(w.srv)
	case wasHit:
		tr.begin("serve.query_hit")
		_, err = ask(w.srv)
		w.probeHits++
	default:
		tr.begin("serve.query_miss")
		_, err = ask(w.nocache)
	}
	staged += tr.end()
	w.encodeUS = append(w.encodeUS, float64(handler-staged)/1e3)
	return d, err == nil
}

// direct answers pool query q by the server's query methods, in the form
// the handler's JSON decodes to.
func (w *serveRead) direct(q int) (any, error) {
	ask, err := w.parse(q)
	if err != nil {
		return nil, err
	}
	a, err := ask(w.srv)
	if err != nil || w.pool[q].kind == kindSupport {
		return a.support, err
	}
	return toWire(a.rules, a.version, w.srv.View().NumTx()), nil
}

func (w *serveRead) finish(values map[string]float64, traced bool) (checks, failed int, err error) {
	defer w.close()
	st := w.srv.Stats()
	hits := st.CacheHits - w.base.CacheHits - w.probeHits
	misses := st.CacheMisses - w.base.CacheMisses
	values["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	values["serve.resp_bytes_per_op"] = float64(w.respBytes) / values["bench.ops"]
	if traced {
		values["serve.encode_us"] = median(w.encodeUS)
	}
	// No write ran, so the view the ops saw is still current and the
	// direct query must give what the handler gave.
	for _, kb := range w.kept {
		checks++
		want, err := w.direct(kb.q)
		if err != nil {
			return checks, failed, err
		}
		got := reflect.New(reflect.TypeOf(want))
		if err := json.Unmarshal(kb.body, got.Interface()); err != nil || !reflect.DeepEqual(got.Elem().Interface(), want) {
			failed++
		}
	}
	return checks, failed, nil
}

func (w *serveRead) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.nocache != nil {
		w.nocache.Close()
	}
}
