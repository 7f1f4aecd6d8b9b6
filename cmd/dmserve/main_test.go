package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/mining"
)

// wireRule mirrors internal/serve's rule wire form.
type wireRule struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// wireRules mirrors internal/serve's rule-endpoint response.
type wireRules struct {
	Version uint64     `json:"version"`
	NumTx   int        `json:"num_tx"`
	Rules   []wireRule `json:"rules"`
}

// writeFixture writes a correlated basket file and returns its path plus
// the parsed DB (the oracle input).
func writeFixture(t *testing.T, n int) (string, *mining.DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	for i := 0; i < n; i++ {
		base := rng.Intn(6)
		fmt.Fprintf(&sb, "%d %d", base, base+6)
		for j := 0; j < rng.Intn(4); j++ {
			fmt.Fprintf(&sb, " %d", 12+rng.Intn(8))
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "baskets.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}
	db, err := mining.ReadBasket(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return path, db
}

// startServer runs dmserve's run() on a loopback port and returns the
// base URL plus a shutdown func that asserts a clean exit.
func startServer(t *testing.T, args []string) (string, *bytes.Buffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	var out bytes.Buffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, &out, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	stop := func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("run returned %v on shutdown\n%s", err, out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
	return "http://" + addr, &out, stop
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, body, err)
	}
}

// ruleKey gives rules an order-independent identity for set comparison.
func ruleKey(ante, cons []int, support int, conf float64) string {
	return fmt.Sprintf("%v=>%v sup=%d conf=%.9f", ante, cons, support, conf)
}

// TestEndToEnd is the dmserve e2e smoke: start the server over a
// fixture, query the full rule set over HTTP, and diff it against the
// same mining pipeline cmd/dmine's assoc mode uses (mining.Mine +
// Result.Rules at the same thresholds). Then drive the ingest path
// (append, delete, flush) and check the republished view.
func TestEndToEnd(t *testing.T) {
	path, db := writeFixture(t, 300)
	base, out, stop := startServer(t, []string{
		"-in", path,
		"-addr", "127.0.0.1:0",
		"-minsup", "0.05",
		"-minconf", "0.3",
		"-rulefloor", "0.3",
		"-maintainevery", "0",
	})
	defer stop()

	if !strings.Contains(out.String(), "300 transactions") {
		t.Fatalf("startup banner missing transaction count:\n%s", out.String())
	}

	// Query path: the served rule set must match dmine's pipeline.
	var got wireRules
	getJSON(t, base+"/v1/rules?k=10000&minconf=0.3", &got)
	if got.Version != 1 || got.NumTx != 300 {
		t.Fatalf("rules header version=%d num_tx=%d, want 1/300", got.Version, got.NumTx)
	}
	res, err := mining.Mine(context.Background(), db, mining.MinSupport(0.05))
	if err != nil {
		t.Fatalf("oracle mine: %v", err)
	}
	want, err := res.Rules(0.3)
	if err != nil {
		t.Fatalf("oracle rules: %v", err)
	}
	gotKeys := make([]string, len(got.Rules))
	for i, r := range got.Rules {
		gotKeys[i] = ruleKey(r.Antecedent, r.Consequent, r.Support, r.Confidence)
	}
	wantKeys := make([]string, len(want))
	for i, r := range want {
		wantKeys[i] = ruleKey(r.Antecedent, r.Consequent, r.Support, r.Confidence)
	}
	sort.Strings(gotKeys)
	sort.Strings(wantKeys)
	if len(gotKeys) == 0 {
		t.Fatal("served rule set is empty")
	}
	if !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("served rules diverge from dmine pipeline:\n got %d: %v\nwant %d: %v",
			len(gotKeys), gotKeys, len(wantKeys), wantKeys)
	}

	// Support lookup agrees with the oracle result.
	var sup struct {
		Count    int  `json:"count"`
		Frequent bool `json:"frequent"`
	}
	getJSON(t, base+"/v1/support?items=0,6", &sup)
	wantCount, wantFreq := res.Support(0, 6)
	if sup.Count != wantCount || sup.Frequent != wantFreq {
		t.Fatalf("support(0,6) = (%d, %v) over HTTP, oracle (%d, %v)",
			sup.Count, sup.Frequent, wantCount, wantFreq)
	}

	// Ingest path: append two rows, delete one, flush, re-check the view.
	resp, err := http.Post(base+"/v1/append", "text/plain", strings.NewReader("0 6\n1 7\n"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/delete?tid=0", "text/plain", nil)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/flush", "text/plain", nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	var flush struct {
		Version uint64 `json:"version"`
		NumTx   int    `json:"num_tx"`
		Ops     uint64 `json:"ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&flush); err != nil {
		t.Fatalf("flush decode: %v", err)
	}
	resp.Body.Close()
	if flush.Version < 2 || flush.NumTx != 301 || flush.Ops != 3 {
		t.Fatalf("flush = %+v, want version>=2 num_tx=301 ops=3", flush)
	}
	getJSON(t, base+"/v1/rules?k=5", &got)
	if got.Version != flush.Version || got.NumTx != 301 {
		t.Fatalf("post-flush rules header %d/%d, want %d/301", got.Version, got.NumTx, flush.Version)
	}
}

// TestBadFlags pins the invalid-flag exit class.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-rpcaddr", "127.0.0.1:0"}, // no such flag: HTTP is the only transport
		{"-distfaults", "err=0.1"},  // requires -dist
		{"-distfaults", "nonsense", "-dist"},
		{"-algo", "Apriori"}, // no such flag: sessions count level-wise
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := run(context.Background(), args, &out, nil)
		if code := cliutil.ExitCode(err); code != 2 {
			t.Errorf("run(%v) error %v maps to exit %d, want 2", args, err, code)
		}
	}
	if err := run(context.Background(), []string{"-in", "/nonexistent/baskets"}, io.Discard, nil); err == nil {
		t.Error("missing -in file did not error")
	}
}
