package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeFixtureFile writes one Go source file into a fresh temp dir and
// returns the dir, for tests that need a fixture not worth checking in.
func writeFixtureFile(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunExitCodes pins the process contract CI depends on: 0 on a
// clean tree, 1 on violations, 2 on usage errors (bad flag, missing
// root).
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"clean tree", []string{filepath.Join("testdata", "errwrap", "good")}, 0},
		{"violations", []string{filepath.Join("testdata", "errwrap", "bad")}, 1},
		{"unknown flag", []string{"-nope"}, 2},
		{"missing root", []string{filepath.Join("testdata", "does-not-exist")}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.argv, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.argv, got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestRunGatesTheRootItself: a root of "." or "./..." is walked like
// any other directory — the dot-directory exemption applies only below
// a root, so the working directory's own package is gated.
func TestRunGatesTheRootItself(t *testing.T) {
	dir := writeFixtureFile(t, "lib.go", `// Package lib holds one undocumented exported function.
package lib

func Undocumented() {}
`)
	t.Chdir(dir)
	for _, root := range []string{".", "./..."} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{root}, &stdout, &stderr); got != 1 {
			t.Fatalf("run(%q) = %d, want 1\nstdout:\n%s\nstderr:\n%s", root, got, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), "exported function Undocumented has no doc comment") {
			t.Errorf("run(%q) missed the undocumented function:\n%s", root, stdout.String())
		}
	}
}

// TestFindingFormat: every emitted line is file:line: [analyzer]
// message — the shape CI log scrapers and editors parse.
func TestFindingFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{filepath.Join("testdata", "errwrap", "bad")}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	format := regexp.MustCompile(`^[^:]+\.go:\d+: \[[a-z]+\] .+$`)
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !format.MatchString(line) {
			t.Errorf("line not in file:line: [analyzer] message form: %q", line)
		}
	}
	if !strings.Contains(stderr.String(), "invariant violations") {
		t.Errorf("summary line missing from stderr: %q", stderr.String())
	}
}

// TestNormalizeRoot: go-style ./... patterns map onto their directory,
// so `go run ./tools/invcheck ./...` gates the whole tree.
func TestNormalizeRoot(t *testing.T) {
	cases := map[string]string{
		"./...":         ".",
		"...":           ".",
		"internal/...":  "internal",
		"internal/wal":  "internal/wal",
		"internal/wal/": "internal/wal",
	}
	for in, want := range cases {
		if got := normalizeRoot(in); got != want {
			t.Errorf("normalizeRoot(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFindingsSorted: findings across files and lines come out ordered
// by (file, line), keeping CI output diffable run to run.
func TestFindingsSorted(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		filepath.Join("testdata", "goroutines", "bad"),
		filepath.Join("testdata", "determinism", "bad"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for i := 1; i < len(lines); i++ {
		fileOf := func(s string) string { return s[:strings.Index(s, ".go:")] }
		if fileOf(lines[i-1]) > fileOf(lines[i]) {
			t.Fatalf("findings not sorted by file:\n%s", stdout.String())
		}
	}
}

// TestWalkerExemptions: testdata, vendor, and dot-dirs are skipped, as
// are _test.go files, so fixtures never gate the build — while
// examples/ is gated like any other package.
func TestWalkerExemptions(t *testing.T) {
	dir := t.TempDir()
	bad := `// Package worker holds a goroutine with no join.
package worker

func detach(work func()) {
	go work()
}
`
	for _, sub := range []string{"testdata", "examples", "vendor", ".hidden"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "bad.go"), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	testFile := strings.Replace(bad, "func detach", "func testDetach", 1)
	if err := os.WriteFile(filepath.Join(dir, "skip_test.go"), []byte(testFile), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkTree(dir, registry)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "examples", "bad.go")
	if len(findings) != 1 || findings[0].File != want || findings[0].Analyzer != "goroutines" {
		t.Fatalf("want one goroutines finding in %s, got %d:\n%s", want, len(findings), joinFindings(findings))
	}
}
