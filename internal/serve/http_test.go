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
	"strings"
	"testing"

	"repro/internal/wal"
)

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

// TestHTTPAppendIsAllOrNothing: a body with a malformed line answers 400
// and applies none of its lines, not the valid prefix. The view's op
// count, the store and the write-ahead log (read back by a restart) all
// stay where the last good request left them.
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
