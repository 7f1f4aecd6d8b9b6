package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wal"
	"repro/mining"
)

// ruleJSON is the encoding/json reference form of one rule in the rule
// endpoints' reply; the handlers append the same bytes by hand.
type ruleJSON struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// rulesResponse is the encoding/json reference form of the rule
// endpoints' reply.
type rulesResponse struct {
	Version uint64     `json:"version"`
	NumTx   int        `json:"num_tx"`
	Rules   []ruleJSON `json:"rules"`
}

// toRuleJSON adapts the facade rules to the reference form.
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

// startHTTP wraps a test server's handler in an httptest server.
func startHTTP(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getJSON fetches url and decodes the JSON body into out, asserting the
// status code.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
}

// postStatus posts a body and asserts the status code.
func postStatus(t *testing.T, url, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, got)
	}
	return got
}

func TestHTTPRules(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 16, 21), Config{})
	ts := startHTTP(t, srv)

	var resp rulesResponse
	getJSON(t, ts.URL+"/v1/rules?k=5&by=support", http.StatusOK, &resp)
	if resp.Version != 1 {
		t.Fatalf("rules version = %d, want 1", resp.Version)
	}
	if len(resp.Rules) == 0 || len(resp.Rules) > 5 {
		t.Fatalf("rules count = %d, want 1..5", len(resp.Rules))
	}
	// The HTTP answer must match the direct API answer exactly.
	want, _, err := srv.TopRules(RulesQuery{K: 5, By: BySupport})
	if err != nil {
		t.Fatalf("TopRules: %v", err)
	}
	if !reflect.DeepEqual(resp.Rules, toRuleJSON(want)) {
		t.Fatal("HTTP rules diverge from the API rules")
	}
	// Supports are descending under by=support.
	for i := 1; i < len(resp.Rules); i++ {
		if resp.Rules[i].Support > resp.Rules[i-1].Support {
			t.Fatal("by=support ordering violated")
		}
	}

	// Antecedent filter: every returned antecedent contains the item.
	getJSON(t, ts.URL+"/v1/rules?antecedent=2", http.StatusOK, &resp)
	for _, r := range resp.Rules {
		if !containsAll(r.Antecedent, []int{2}) {
			t.Fatalf("antecedent filter leaked rule %+v", r)
		}
	}
}

func TestHTTPSupportAndRecommend(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 16, 22), Config{})
	ts := startHTTP(t, srv)

	var sup SupportResult
	getJSON(t, ts.URL+"/v1/support?items=2,3", http.StatusOK, &sup)
	wantSup, err := srv.ItemsetSupport(2, 3)
	if err != nil {
		t.Fatalf("ItemsetSupport: %v", err)
	}
	if !reflect.DeepEqual(sup, wantSup) {
		t.Fatalf("HTTP support %+v != API support %+v", sup, wantSup)
	}

	var rec rulesResponse
	getJSON(t, ts.URL+"/v1/recommend?items=2&k=3", http.StatusOK, &rec)
	want, _, err := srv.Recommend([]int{2}, 3)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if !reflect.DeepEqual(rec.Rules, toRuleJSON(want)) {
		t.Fatal("HTTP recommend diverges from the API")
	}
}

func TestHTTPBadQueries(t *testing.T) {
	srv := newTestServer(t, fixtureRows(80, 12, 23), Config{})
	ts := startHTTP(t, srv)
	bad := []string{
		"/v1/rules?k=oops",
		"/v1/rules?k=-3",
		"/v1/rules?by=bogus",
		"/v1/rules?minconf=1.7",
		"/v1/rules?minconf=NaN",
		"/v1/rules?antecedent=1,x",
		"/v1/rules?antecedent=-4",
		"/v1/support?items=",
		"/v1/support?items=a",
		"/v1/recommend?items=",
		"/v1/recommend?items=1&k=zzz",
	}
	for _, path := range bad {
		var body map[string]string
		getJSON(t, ts.URL+path, http.StatusBadRequest, &body)
		if body["error"] == "" {
			t.Errorf("%s: no error body", path)
		}
	}
	postStatus(t, ts.URL+"/v1/delete?tid=x", "", http.StatusBadRequest)
	postStatus(t, ts.URL+"/v1/delete?tid=-1", "", http.StatusBadRequest)
	postStatus(t, ts.URL+"/v1/append", "1 2 -9", http.StatusBadRequest)
}

func TestHTTPIngestFlushRoundTrip(t *testing.T) {
	srv := newTestServer(t, fixtureRows(100, 12, 24), Config{})
	ts := startHTTP(t, srv)

	var enq map[string]int
	body := postStatus(t, ts.URL+"/v1/append", "1 2 3\n\n4 5 6\n", http.StatusOK)
	if err := json.Unmarshal(body, &enq); err != nil || enq["enqueued"] != 2 {
		t.Fatalf("append reply %s (err %v), want enqueued=2", body, err)
	}
	postStatus(t, ts.URL+"/v1/delete?tid=0", "", http.StatusOK)

	var flush map[string]any
	body = postStatus(t, ts.URL+"/v1/flush", "", http.StatusOK)
	if err := json.Unmarshal(body, &flush); err != nil {
		t.Fatalf("flush reply %s: %v", body, err)
	}
	if v, ok := flush["version"].(float64); !ok || v < 2 {
		t.Fatalf("flush did not publish: %v", flush)
	}
	if n, ok := flush["num_tx"].(float64); !ok || int(n) != 100+2-1 {
		t.Fatalf("flush num_tx = %v, want 101", flush["num_tx"])
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Ops != 3 || stats.Maintains == 0 {
		t.Fatalf("stats after round trip: %+v", stats)
	}
	var health map[string]string
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
}

// TestHTTPAppendLineCap pins POST /v1/append's 1 MiB line cap (newline
// included): a body whose one line just fits is accepted, and a longer
// line answers 400 with ErrBadQuery and applies nothing.
func TestHTTPAppendLineCap(t *testing.T) {
	const lineCap = 1 << 20
	rows := fixtureRows(100, 12, 24)
	srv := newTestServer(t, rows, Config{})
	ts := startHTTP(t, srv)
	line := func(n int) string { // n bytes, newline included
		return "3 17 29" + strings.Repeat(" ", n-len("3 17 29")-1) + "\n"
	}

	body := postStatus(t, ts.URL+"/v1/append", line(lineCap), http.StatusOK)
	var enq map[string]int
	if err := json.Unmarshal(body, &enq); err != nil || enq["enqueued"] != 1 {
		t.Fatalf("append reply %s (err %v), want enqueued=1", body, err)
	}
	v, err := srv.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Ops() != 1 || srv.session.Len() != len(rows)+1 {
		t.Fatalf("after the longest line: ops %d, store %d, want 1 and %d", v.Ops(), srv.session.Len(), len(rows)+1)
	}

	var reply map[string]string
	body = postStatus(t, ts.URL+"/v1/append", "1 2\n"+line(lineCap+1), http.StatusBadRequest)
	if err := json.Unmarshal(body, &reply); err != nil || !strings.Contains(reply["error"], ErrBadQuery.Error()) {
		t.Fatalf("over-cap reply %s (err %v), want an %q error", body, err, ErrBadQuery)
	}
	if v, err = srv.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v.Ops() != 1 {
		t.Fatalf("after the over-cap body: ops %d, want 1", v.Ops())
	}
}

// TestHTTPAppendIsAllOrNothing: a body with a malformed line answers 400
// and applies none of its lines, not the valid prefix. The view's op
// count, the store and the write-ahead log (read back by a restart) all
// stay where the last good request left them. A body whose log write
// fails partway answers an error and applies none of its lines either.
func TestHTTPAppendIsAllOrNothing(t *testing.T) {
	fs := wal.NewMemFS()
	rows := fixtureRows(100, 12, 24)
	srv := newTestServer(t, rows, Config{FS: fs})
	ts := startHTTP(t, srv)
	ctx := context.Background()

	postStatus(t, ts.URL+"/v1/append", "1 2 3\n4 5 6\n", http.StatusOK)
	before, err := srv.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Ops() != 2 || srv.session.Len() != len(rows)+2 {
		t.Fatalf("after the good body: ops %d, store %d", before.Ops(), srv.session.Len())
	}

	bad := strings.Repeat("7 8 9\n", 8) + "7 x 9\n" + "10 11\n"
	postStatus(t, ts.URL+"/v1/append", bad, http.StatusBadRequest)
	after, err := srv.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Ops() != before.Ops() || srv.Stats().Ops != before.Ops() {
		t.Fatalf("ops moved across a rejected body: view %d, consumed %d, want %d",
			after.Ops(), srv.Stats().Ops, before.Ops())
	}
	if got := srv.session.Len(); got != len(rows)+2 {
		t.Fatalf("store holds %d transactions after a rejected body, want %d", got, len(rows)+2)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restarted, err := New(nil, Config{MinSupport: testMinSup, RuleFloor: testFloor,
		MaintainAfter: manualTrigger, FS: fs})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Close()
	if ops, found := restarted.Recovered(); !found || ops != before.Ops() {
		t.Fatalf("WAL holds %d ops (found=%v) after a rejected body, want %d", ops, found, before.Ops())
	}

	// A log write that fails mid-request: the plan's seed lets the server
	// start and then fails the write of the body's fifth record. The body
	// answers an error with none of its lines applied, where a line-by-line
	// enqueue would have applied and acked the first four.
	mem := wal.NewMemFS()
	faulty := newTestServer(t, rows, Config{FS: wal.NewFaultFS(mem, wal.FaultPlan{Seed: 1, WriteErr: 0.1})})
	ops := faulty.Stats().Ops
	const lines = 10
	postStatus(t, startHTTP(t, faulty).URL+"/v1/append", strings.Repeat("7 8 9\n", lines), http.StatusInternalServerError)
	if got := faulty.session.Len(); got != len(rows) || faulty.Stats().Ops != ops {
		t.Fatalf("after a log failure mid-body: store %d (want %d), consumed %d (want %d)",
			got, len(rows), faulty.Stats().Ops, ops)
	}
	rec, err := wal.Recover(mem)
	if err != nil {
		t.Fatal(err)
	}
	if written := rec.Ops - ops; written == 0 || written >= lines {
		t.Fatalf("%d of the body's %d records reached the log before the fault, want a fault mid-body", written, lines)
	}
}

// TestWriteEnqueuedMatchesJSON pins the write handlers' reply to the
// header and bytes writeJSON gives the map it replaced, {"enqueued":16}
// and a newline for a 16-line append.
func TestWriteEnqueuedMatchesJSON(t *testing.T) {
	for _, n := range []int{0, 1, 16, 1 << 40, -3} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeEnqueued(got, n)
		writeJSON(want, map[string]int{"enqueued": n})
		if got.Body.String() != want.Body.String() || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("n=%d: reply %q %v, writeJSON gives %q %v", n, got.Body, got.Header(), want.Body, want.Header())
		}
	}
	rec := httptest.NewRecorder()
	writeEnqueued(rec, 16)
	if rec.Body.String() != "{\"enqueued\":16}\n" {
		t.Errorf("reply %q", rec.Body)
	}
}

// TestReadBodiesMatchEncodingJSON pins every read endpoint's reply, body
// and header, to what writeJSON gives the encoding/json reference of the
// same answer asked of the server directly: each ranking, a K past the
// matches, an empty rule list, an antecedent filter, a recommendation, and
// the support of a frequent and of an infrequent itemset.
func TestReadBodiesMatchEncodingJSON(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 16, 21), Config{})
	h := srv.Handler()
	v := srv.View()
	rule := v.Rules()[0]
	ant := strconv.Itoa(rule.Antecedent[0])
	items := func(its []int) string { return string(appendItems(nil, its)) }
	rulesRef := func(rules []mining.Rule) any {
		return rulesResponse{Version: v.Version(), NumTx: v.NumTx(), Rules: toRuleJSON(rules)}
	}
	cases := []struct {
		path string
		want func(t *testing.T, raw string) any
	}{
		{"/v1/rules", nil},
		{"/v1/rules?by=confidence&k=7", nil},
		{"/v1/rules?by=support&k=7", nil},
		{"/v1/rules?by=lift&k=7", nil},
		{"/v1/rules?by=lift&k=10000", nil},
		{"/v1/rules?minconf=1&k=3", nil},
		{"/v1/rules?antecedent=999", nil},
		{"/v1/rules?antecedent=" + ant + "&by=support&k=10000", nil},
		{"/v1/rules?antecedent=" + items(rule.Antecedent) + "&by=lift", nil},
		{"/v1/recommend?items=" + items(rule.Antecedent) + ",3&k=4", func(t *testing.T, raw string) any {
			vals, _ := url.ParseQuery(raw)
			basket, err := ParseItems(vals.Get("items"))
			if err != nil {
				t.Fatal(err)
			}
			rules, _, err := srv.Recommend(basket, 4)
			if err != nil || len(rules) == 0 {
				t.Fatalf("Recommend(%v) = %d rules, %v; want some", basket, len(rules), err)
			}
			return rulesRef(rules)
		}},
		{"/v1/support?items=" + items(rule.Antecedent), nil},
		{"/v1/support?items=0,1,2,3,4,5,6,7", nil},
	}
	var sawEmpty, sawPastK, sawInfrequent bool
	for _, tc := range cases {
		u, err := url.Parse(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var want any
		switch {
		case tc.want != nil:
			want = tc.want(t, u.RawQuery)
		case u.Path == "/v1/support":
			its, err := ParseItems(u.Query().Get("items"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := srv.ItemsetSupport(its...)
			if err != nil {
				t.Fatal(err)
			}
			sawInfrequent = sawInfrequent || !res.Frequent
			want = res
		default:
			q, err := ParseRulesQuery(u.Query())
			if err != nil {
				t.Fatal(err)
			}
			rules, _, err := srv.TopRules(q)
			if err != nil {
				t.Fatal(err)
			}
			sawEmpty = sawEmpty || len(rules) == 0
			sawPastK = sawPastK || len(rules) < q.K
			want = rulesRef(rules)
		}
		got, ref := httptest.NewRecorder(), httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodGet, tc.path, nil))
		writeJSON(ref, want)
		if got.Code != http.StatusOK || got.Body.String() != ref.Body.String() || !reflect.DeepEqual(got.Header(), ref.Header()) {
			t.Errorf("GET %s: %d %q %v\nencoding/json: %q %v", tc.path, got.Code, got.Body, got.Header(), ref.Body, ref.Header())
		}
	}
	if !sawEmpty || !sawPastK || !sawInfrequent {
		t.Errorf("fixture misses a case: empty answer %v, K past the matches %v, infrequent itemset %v", sawEmpty, sawPastK, sawInfrequent)
	}
}

// TestWriteReplyPoolsOnlySmallBuffers pins the cap on pooled reply
// buffers: one that grew past maxPooledReply, as a k=10000 answer's does,
// is left to the garbage collector, and a smaller one is handed back.
func TestWriteReplyPoolsOnlySmallBuffers(t *testing.T) {
	for _, size := range []int{maxPooledReply, maxPooledReply + 1} {
		buf := new([]byte)
		b := append(make([]byte, 0, size), "{}"...)
		rec := httptest.NewRecorder()
		writeReply(rec, buf, b)
		if rec.Body.String() != "{}\n" {
			t.Fatalf("reply %q", rec.Body)
		}
		if pooled := *buf != nil; pooled != (size <= maxPooledReply) {
			t.Errorf("a buffer of capacity %d: pooled %v, want %v", size, pooled, size <= maxPooledReply)
		}
	}
}

// reuseWriter is an http.ResponseWriter that keeps its header map and body
// across requests, so an allocation count sees the handler alone.
type reuseWriter struct {
	header http.Header
	body   []byte
}

func (w *reuseWriter) Header() http.Header { return w.header }

func (w *reuseWriter) WriteHeader(int) {}

func (w *reuseWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestReadHandlerAllocations pins the allocations of a read request whose
// answer is cached. What is left is the request's own: the header value,
// the cache key, and each parsed and normalized item list; parsing the
// query, encoding and writing the reply allocate nothing.
func TestReadHandlerAllocations(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 16, 21), Config{})
	h := srv.Handler()
	ant := strconv.Itoa(srv.View().Rules()[0].Antecedent[0])
	w := &reuseWriter{header: make(http.Header)}
	for _, tc := range []struct {
		path string
		want float64
	}{
		{"/v1/rules?k=10&by=lift", 2},
		{"/v1/rules?k=10&by=support&antecedent=" + ant, 4},
		{"/v1/recommend?items=" + ant + ",3&k=5", 4},
		{"/v1/support?items=" + ant + ",3", 4},
	} {
		r := httptest.NewRequest(http.MethodGet, tc.path, nil)
		serve := func() {
			clear(w.header)
			w.body = w.body[:0]
			h.ServeHTTP(w, r)
		}
		serve() // fills the cache
		if !strings.Contains(string(w.body), `"version":1`) {
			t.Fatalf("GET %s: %q", tc.path, w.body)
		}
		if got := testing.AllocsPerRun(200, serve); got != tc.want {
			t.Errorf("GET %s: %v allocations per request, want %v", tc.path, got, tc.want)
		}
	}
}

// TestParseRulesQueryTable pins the parser's accept/reject behavior
// directly (the fuzz targets explore beyond it).
func TestParseRulesQueryTable(t *testing.T) {
	cases := []struct {
		raw  string
		want RulesQuery
		ok   bool
	}{
		{"", RulesQuery{K: 10, By: ByConfidence, Antecedent: []int{}}, true},
		{"k=3&by=LIFT", RulesQuery{K: 3, By: ByLift, Antecedent: []int{}}, true},
		{"k=99999999", RulesQuery{K: MaxTopK, By: ByConfidence, Antecedent: []int{}}, true},
		{"antecedent=3,1,3&minconf=0.6", RulesQuery{K: 10, By: ByConfidence, MinConfidence: 0.6, Antecedent: []int{1, 3}}, true},
		{"by=support&unknown=ignored", RulesQuery{K: 10, By: BySupport, Antecedent: []int{}}, true},
		{"k=-1", RulesQuery{}, false},
		{"by=frequency", RulesQuery{}, false},
		{"minconf=2", RulesQuery{}, false},
		{"minconf=x", RulesQuery{}, false},
		{"antecedent=1|2", RulesQuery{}, false},
	}
	for _, tc := range cases {
		values, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.raw, err)
		}
		got, err := ParseRulesQuery(values)
		if tc.ok != (err == nil) {
			t.Errorf("ParseRulesQuery(%q) error = %v, want ok=%v", tc.raw, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRulesQuery(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
}

// TestQueryLimits pins the documented bounds.
func TestQueryLimits(t *testing.T) {
	big := make([]int, maxQueryItems+1)
	if _, err := normalizeItems(big); err == nil {
		t.Error("oversized item list accepted")
	}
	var sb strings.Builder
	for i := 0; i <= maxQueryItems; i++ {
		fmt.Fprintf(&sb, "%d,", i)
	}
	if _, err := ParseItems(sb.String()); err == nil {
		t.Error("oversized item string accepted")
	}
	if _, err := ParseItems("5 , 3\t2"); err != nil {
		t.Errorf("mixed separators rejected: %v", err)
	}
}
