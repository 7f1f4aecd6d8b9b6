package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transactions"
)

func generate(t *testing.T, kind string, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, kind, n, 8, 3, 2, 0.05, 3, 2, 9); err != nil {
		t.Fatalf("run(%s): %v", kind, err)
	}
	return buf.String()
}

func TestGenerateBasketsParsesBack(t *testing.T) {
	out := generate(t, "baskets", 50)
	db, err := transactions.ReadBasket(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 50 {
		t.Errorf("transactions = %d", db.Len())
	}
}

func TestGenerateClassifyParsesBack(t *testing.T) {
	out := generate(t, "classify", 40)
	tbl, err := dataset.ReadCSV(strings.NewReader(out), "group")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 40 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	if tbl.NumClasses() == 0 {
		t.Error("class column not categorical")
	}
}

func TestGenerateClustersHasHeaderAndLabels(t *testing.T) {
	out := generate(t, "clusters", 30)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 31 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "x0,x1,label" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestGenerateSequencesFormat(t *testing.T) {
	out := generate(t, "sequences", 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 20 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, line := range lines {
		if strings.TrimSpace(line) == "" {
			t.Fatal("empty customer line")
		}
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", 10, 1, 1, 1, 0, 1, 1, 1); err == nil {
		t.Error("unknown kind should error")
	}
}

// TestSequencesGolden pins the bytes of `dmgen -kind sequences -n 500
// -seed 3` (every other flag at its default) by sha256, so a change to how
// the writer formats items shows up as a changed digest.
func TestSequencesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "sequences", 500, 10, 4, 1, 0, 5, 2, 3); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "fec9be6ff655e33e7208d430d0e1b074af8466b817aac4c14f03292fedc1eb65"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("sha256 = %s, want %s (%d bytes)", got, want, buf.Len())
	}
}

// failWriter fails every write, as a full disk does.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

func TestRunReportsWriteErrors(t *testing.T) {
	for _, kind := range []string{"baskets", "sequences", "classify", "clusters"} {
		if err := run(failWriter{}, kind, 2000, 8, 3, 2, 0.05, 3, 2, 9); err == nil {
			t.Errorf("%s: a failing writer returned no error", kind)
		}
	}
}
