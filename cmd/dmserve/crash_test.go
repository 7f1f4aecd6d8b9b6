package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
)

// buildDmserve compiles the real binary into a temp dir; crash testing a
// process that can be SIGKILLed needs an actual process, not run() in a
// goroutine.
func buildDmserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dmserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startProcess launches the built binary and scans its stdout for the
// listen banner, returning the base URL and the running command.
func startProcess(t *testing.T, bin string, args []string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = &bytes.Buffer{}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on http://"); ok {
				addrc <- rest
			}
		}
	}()
	select {
	case addr := <-addrc:
		return "http://" + addr, cmd
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("dmserve never printed the listen banner; stderr:\n%s", cmd.Stderr)
		return "", nil
	}
}

// TestCrashRecoveryKill9 is the crash gate: run the real dmserve binary
// with -data and -fsync=always, ingest acknowledged ops one at a time,
// SIGKILL the process mid-stream with no shutdown, restart it over the
// same directory, and require (a) every acknowledged op survived and
// (b) the served canonical bytes equal the oracle's (internal/oracle)
// over the recovered op prefix.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	bin := buildDmserve(t)
	path, db := writeFixture(t, 100)
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-fsync", "always",
		"-snapshotevery", "8",
		"-minsup", "0.05",
		"-maintainevery", "0",
	}

	base, cmd := startProcess(t, bin, append([]string{"-in", path}, args...))
	acked := 0
	appended := make([][]int, 0, 40)
	for i := 0; i < 40; i++ {
		row := []int{i % 6, i%6 + 6, 12 + i%8}
		line := fmt.Sprintf("%d %d %d\n", row[0], row[1], row[2])
		resp, err := http.Post(base+"/v1/append", "text/plain", strings.NewReader(line))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d", i, resp.StatusCode)
		}
		// -fsync=always: a 200 means the op hit the disk before the ack.
		acked++
		appended = append(appended, row)
	}
	// Crash: SIGKILL, no drain, no final snapshot, no WAL close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	base, cmd = startProcess(t, bin, args) // no -in: recovery only
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	var stats struct {
		RecoveredOps uint64 `json:"recovered_ops"`
		Durable      bool   `json:"durable"`
	}
	getJSON(t, base+"/v1/stats", &stats)
	if !stats.Durable {
		t.Fatal("restarted server not durable")
	}
	if stats.RecoveredOps < uint64(acked) {
		t.Fatalf("acknowledged-then-lost: recovered %d ops < acked %d", stats.RecoveredOps, acked)
	}
	if stats.RecoveredOps > uint64(len(appended)) {
		t.Fatalf("invented ops: recovered %d > sent %d", stats.RecoveredOps, len(appended))
	}

	rows := append(db.Rows(), appended[:stats.RecoveredOps]...)
	if got := fetchCanonical(t, base); !bytes.Equal(got, oracle.Canonical(oracle.Frequent(rows, 0.05))) {
		t.Fatalf("post-crash canonical bytes diverge from the oracle over %d recovered ops",
			stats.RecoveredOps)
	}

	// Sanity: the recovered server keeps serving and ingesting.
	resp, err := http.Post(base+"/v1/flush", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	var flush struct {
		NumTx int `json:"num_tx"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&flush); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if flush.NumTx != len(rows) {
		t.Fatalf("recovered server serves %d transactions, want %d", flush.NumTx, len(rows))
	}
}
