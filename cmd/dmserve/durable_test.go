package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/oracle"
)

// TestDurableRestart is the dmserve durability e2e: start with -data and
// -in, ingest over HTTP, flush, shut down cleanly, restart over the same
// directory with no -in, and check the recovered server serves the exact
// post-ingest state.
func TestDurableRestart(t *testing.T) {
	path, db := writeFixture(t, 120)
	dataDir := filepath.Join(t.TempDir(), "dm-data")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-fsync", "always",
		"-snapshotevery", "16",
		"-minsup", "0.05",
		"-rulefloor", "0.3",
		"-maintainevery", "0",
	}
	base, out, stop := startServer(t, append([]string{"-in", path}, args...))

	var st map[string]string
	getJSON(t, base+"/v1/readyz", &st)
	if st["status"] != "ready" {
		t.Fatalf("readyz: %v", st)
	}

	rows := db.Rows()
	for i := 0; i < 30; i++ {
		line := fmt.Sprintf("%d %d %d\n", i%6, i%6+6, 12+i%8)
		resp, err := http.Post(base+"/v1/append", "text/plain", strings.NewReader(line))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d", i, resp.StatusCode)
		}
		rows = append(rows, []int{i % 6, i%6 + 6, 12 + i%8})
	}
	resp, err := http.Post(base+"/v1/flush", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	wantCanon := fetchCanonical(t, base)
	stop()
	if !strings.Contains(out.String(), "durable: fresh data directory") {
		t.Fatalf("fresh-directory banner missing:\n%s", out.String())
	}

	// Restart with the same -in: the directory already holds state, so the
	// file must be ignored and every ingested op recovered.
	base, out, stop = startServer(t, append([]string{"-in", path}, args...))
	defer stop()
	if !strings.Contains(out.String(), "durable: recovered 30 ops") ||
		!strings.Contains(out.String(), "-in ignored") {
		t.Fatalf("recovery banner wrong:\n%s", out.String())
	}
	getJSON(t, base+"/v1/readyz", &st)
	if st["status"] != "ready" {
		t.Fatalf("readyz after restart: %v", st)
	}
	if got := fetchCanonical(t, base); !bytes.Equal(got, wantCanon) {
		t.Fatal("recovered canonical bytes differ from the pre-shutdown state")
	}

	// And both must equal the oracle's answer over the folded op stream.
	if !bytes.Equal(wantCanon, oracle.Canonical(oracle.Frequent(rows, 0.05))) {
		t.Fatal("served canonical bytes diverge from the oracle's")
	}
}

// fetchCanonical GETs /v1/canonical and returns the body bytes.
func fetchCanonical(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/canonical")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("canonical: status %d, %v", resp.StatusCode, err)
	}
	return body
}

// TestDurableFlagValidation pins the -data prerequisite of the
// durability flags.
func TestDurableFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-fsync", "never"},          // requires -data
		{"-snapshotevery", "8"},      // requires -data
		{"-data", "", "-fsync", "x"}, // bad policy
		{"-data", "d", "-fsync", "interval=soon"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out, nil)
		if code := cliutil.ExitCode(err); code != 2 {
			t.Errorf("run(%v) error %v maps to exit %d, want 2", args, err, code)
		}
	}
}
