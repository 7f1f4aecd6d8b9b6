package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// runOn runs exactly one registered analyzer (plus the suppression
// layer) over a fixture tree and returns the findings.
func runOn(t *testing.T, analyzer, root string) []Finding {
	t.Helper()
	var selected []*Analyzer
	for _, a := range registry {
		if a.Name == analyzer {
			selected = append(selected, a)
		}
	}
	if len(selected) != 1 {
		t.Fatalf("analyzer %q is not registered", analyzer)
	}
	findings, err := checkTree(root, selected)
	if err != nil {
		t.Fatal(err)
	}
	sortFindings(findings)
	return findings
}

// joinFindings renders findings one per line for failure messages and
// substring assertions.
func joinFindings(findings []Finding) string {
	lines := make([]string, len(findings))
	for i, f := range findings {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// TestAnalyzerFixtures drives every analyzer over its good/bad fixture
// pair: the good tree is clean, and the bad tree reports exactly the
// pinned violation classes.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer string
		wants    []string // one substring per expected bad-tree finding
	}{
		{
			analyzer: "determinism",
			wants: []string{
				"time.Now in replayed engine code",
				"time.Since in replayed engine code",
				"rand.Intn draws from the global source",
				"range over map counts appends to a slice with no sort in mapOrderIntoSlice",
				"map iteration order over counts reaches the output stream",
			},
		},
		{
			analyzer: "ctxdiscipline",
			wants: []string{
				"exported CountAll loops over shards/transactions",
				"exported ScanTransactions loops over shards/transactions",
				"exported CountShards loops over shards/transactions",
				"struct pinnedScanner stores a context.Context",
			},
		},
		{
			analyzer: "errwrap",
			wants: []string{
				"sentinel ErrCorrupt compared with ==",
				"sentinel ErrCorrupt compared with !=",
				"sentinel io.EOF compared with ==",
				"sentinel errShutdown compared with ==",
				"switch case on sentinel ErrCorrupt",
				"fmt.Errorf formats sentinel ErrCorrupt without %w",
			},
		},
		{
			analyzer: "goroutines",
			wants: []string{
				"go statement in fireAndForget has no lexically-paired join",
				"go statement in detachedLiteral has no lexically-paired join",
			},
		},
		{
			analyzer: "atomicpublish",
			wants: []string{
				"field view stored outside a publish helper (in refresh)",
				"field view stored outside a publish helper (in reset)",
			},
		},
		{
			analyzer: "allocbound",
			wants: []string{
				"hot path sliceLiteral allocates a slice literal []int",
				"hot path mapLiteral allocates a map literal map[int]bool",
				"hot path heapEscape heap-allocates &record",
				"hot path growingAppend appends to dst without capacity provably preallocated by make",
				"hot path concat concatenates strings",
				"hot path boxes boxes id (int) into interface parameter",
				"hot path closureCapture creates a closure capturing total by reference",
			},
		},
		{
			analyzer: "walfailstop",
			wants: []string{
				"error from Sync discarded",
				"error from Write assigned to _",
				"bad.go:29: [walfailstop] error from Sync assigned to err but never read",
				"bad.go:48: [walfailstop] error from Sync assigned to err but never read",
				"error from Write not checked before subsequent rename",
				"error from deferred Sync discarded",
			},
		},
		{
			analyzer: "doccomment",
			wants: []string{
				"bad.go:1: [doccomment] package in",
				"exported const Bare has no doc comment",
				"exported type Widget has no doc comment",
				"exported method Widget.Spin has no doc comment",
				"exported function Exported has no doc comment",
				"exported method Pair.Key has no doc comment",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			good := runOn(t, tc.analyzer, filepath.Join("testdata", tc.analyzer, "good"))
			if len(good) != 0 {
				t.Errorf("good fixture reported %d findings:\n%s", len(good), joinFindings(good))
			}
			bad := runOn(t, tc.analyzer, filepath.Join("testdata", tc.analyzer, "bad"))
			if len(bad) != len(tc.wants) {
				t.Fatalf("bad fixture reported %d findings, want %d:\n%s",
					len(bad), len(tc.wants), joinFindings(bad))
			}
			joined := joinFindings(bad)
			for _, want := range tc.wants {
				if !strings.Contains(joined, want) {
					t.Errorf("missing finding %q in:\n%s", want, joined)
				}
			}
			for _, f := range bad {
				if f.Analyzer != tc.analyzer {
					t.Errorf("finding attributed to %q, want %q: %s", f.Analyzer, tc.analyzer, f)
				}
			}
		})
	}
}

// TestDeterminismScope: the determinism analyzer gates only the
// byte-identity packages — the same wall-clock read that fails in
// package assoc passes in package experiments (the good fixture's
// unscoped subdirectory).
func TestDeterminismScope(t *testing.T) {
	findings := runOn(t, "determinism", filepath.Join("testdata", "determinism", "good", "unscoped"))
	if len(findings) != 0 {
		t.Fatalf("unscoped package reported %d findings:\n%s", len(findings), joinFindings(findings))
	}
}

// TestSuppressionFixtures pins the suppression contract: a reasoned
// directive (line above or same line) silences its finding; a missing
// reason or an unknown analyzer name is itself a violation AND leaves
// the original finding standing.
func TestSuppressionFixtures(t *testing.T) {
	good := runOn(t, "goroutines", filepath.Join("testdata", "suppress", "good"))
	if len(good) != 0 {
		t.Errorf("suppressed good fixture reported %d findings:\n%s", len(good), joinFindings(good))
	}
	bad := runOn(t, "goroutines", filepath.Join("testdata", "suppress", "bad"))
	wants := []string{
		"suppression for invcheck/goroutines is missing a reason",
		`suppression names unknown analyzer "nosuchcheck"`,
		"go statement in missingReason",
		"go statement in unknownAnalyzer",
	}
	if len(bad) != len(wants) {
		t.Fatalf("suppress bad fixture reported %d findings, want %d:\n%s",
			len(bad), len(wants), joinFindings(bad))
	}
	joined := joinFindings(bad)
	for _, want := range wants {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
}

// TestSuppressionScopedToAnalyzer: a directive only silences its named
// analyzer — a goroutines ignore must not hide an errwrap finding on
// the same line.
func TestSuppressionScopedToAnalyzer(t *testing.T) {
	src := writeFixtureFile(t, "cross.go", `// Package worker crosses suppressions.
package worker

import "errors"

// ErrGone is the fixture sentinel.
var ErrGone = errors.New("gone")

func compare(err error) bool {
	//lint:ignore invcheck/goroutines wrong analyzer for the line below
	return err == ErrGone
}
`)
	findings := runOn(t, "errwrap", src)
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "ErrGone") {
		t.Fatalf("cross-analyzer suppression leaked: %s", joinFindings(findings))
	}
}
