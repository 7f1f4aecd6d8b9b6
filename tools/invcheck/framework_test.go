package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFrameworkParseFailureExits2: a file that fails to PARSE aborts
// the run with exit 2 and [framework] diagnostics — it is never
// silently skipped, because an unparseable file could hide any number
// of violations.
func TestFrameworkParseFailureExits2(t *testing.T) {
	dir := writeFixtureFile(t, "broken.go", `package broken

func unclosed() {
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{dir}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run on unparseable tree = %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "[framework]") {
		t.Errorf("stderr missing [framework] diagnostic:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "nothing was gated") {
		t.Errorf("stderr missing the nothing-was-gated notice:\n%s", stderr.String())
	}
}

// TestFrameworkTypeFailureExits2: a file that parses but fails to
// TYPE-CHECK is just as fatal — the typed analyzers cannot run without
// types.Info, and skipping the package would ungate it.
func TestFrameworkTypeFailureExits2(t *testing.T) {
	dir := writeFixtureFile(t, "broken.go", `package broken

func mismatched() int {
	var s string = 42
	return s
}
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{dir}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run on untypeable tree = %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "[framework]") {
		t.Errorf("stderr missing [framework] diagnostic:\n%s", stderr.String())
	}
}

// TestFormatGitHub: -format=github emits workflow ::error annotations
// with file and line properties, one per finding.
func TestFormatGitHub(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format=github", filepath.Join("testdata", "errwrap", "bad")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstderr: %s", code, stderr.String())
	}
	want := regexp.MustCompile(`^::error file=.+\.go,line=\d+::\[[a-z]+\] .+$`)
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !want.MatchString(line) {
			t.Errorf("line is not a ::error annotation: %q", line)
		}
	}
}

// TestGitHubEscape: the workflow-command parser's special characters
// are percent-encoded so multi-line or %-bearing messages cannot break
// out of the annotation.
func TestGitHubEscape(t *testing.T) {
	got := githubEscape("50% done\r\nnext")
	want := "50%25 done%0D%0Anext"
	if got != want {
		t.Errorf("githubEscape = %q, want %q", got, want)
	}
}

// TestUnknownFormatExits2: a typo'd -format is a usage error, not a
// silent fallback to text.
func TestUnknownFormatExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format=xml", "."}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown -format") {
		t.Errorf("stderr missing format diagnostic: %s", stderr.String())
	}
}

// TestSuppressionAudit: -suppressions lists every directive under the
// roots as file:line: invcheck/<analyzer>: reason, exits 0 even though
// the tree has violations, and reports the count on stderr.
func TestSuppressionAudit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-suppressions", filepath.Join("testdata", "suppress")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("audit run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "invcheck/goroutines:") {
		t.Errorf("audit output missing the goroutines directives:\n%s", out)
	}
	lineRe := regexp.MustCompile(`^[^:]+\.go:\d+: invcheck/[a-z]+: .*$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !lineRe.MatchString(line) {
			t.Errorf("audit line not in file:line: invcheck/<name>: reason form: %q", line)
		}
	}
	if !strings.Contains(stderr.String(), "suppressions") {
		t.Errorf("stderr missing the count summary: %q", stderr.String())
	}

}

// TestSuppressionAuditSeesTheGatedFiles: the audit lists directives
// from exactly the files the gate loads — a //go:build ignore'd file's
// directive is not in the inventory, a gated file's is.
func TestSuppressionAuditSeesTheGatedFiles(t *testing.T) {
	dir := writeFixtureFile(t, "gen.go", `//go:build ignore

package main

//lint:ignore invcheck/goroutines never built, never gated
func main() {}
`)
	lib := "// Package lib is gated.\npackage lib\n\n//lint:ignore invcheck/goroutines gated\nfunc fine() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "lib.go"), []byte(lib), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-suppressions", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("audit run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	want := filepath.Join(dir, "lib.go") + ":4: invcheck/goroutines: gated\n"
	if got := stdout.String(); got != want {
		t.Fatalf("audit = %q, want %q", got, want)
	}
}

// TestWalkerSkipsSymlinkedDirs: the walker does not follow directory
// symlinks, so a link pointing at a tree full of violations (or at an
// ancestor, forming a cycle) neither gates nor hangs the run.
func TestWalkerSkipsSymlinkedDirs(t *testing.T) {
	target := writeFixtureFile(t, "bad.go", `package worker

func detach(work func()) {
	go work()
}
`)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte("// Package worker is clean.\npackage worker\n\nfunc fine() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, filepath.Join(dir, "linked")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if err := os.Symlink(dir, filepath.Join(dir, "cycle")); err != nil {
		t.Fatal(err)
	}
	findings, err := checkTree(dir, registry)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("symlinked violations leaked into the walk:\n%s", joinFindings(findings))
	}
}

// TestWalkerEmptyPackages: directories with no Go files at all, and
// directories holding only _test.go files, contribute nothing — no
// findings and no framework error.
func TestWalkerEmptyPackages(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "docs", "README.md"), []byte("notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	testOnly := filepath.Join(dir, "testsonly")
	if err := os.MkdirAll(testOnly, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(testOnly, "x_test.go"), []byte("package testsonly\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkTree(dir, registry)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("empty packages reported findings:\n%s", joinFindings(findings))
	}
}

// TestWalkerHonorsBuildConstraints: a file excluded by its //go:build
// header is invisible — its violations do not fire AND its type errors
// do not abort the run, because the default build context would never
// compile it either.
func TestWalkerHonorsBuildConstraints(t *testing.T) {
	dir := writeFixtureFile(t, "gen.go", `//go:build ignore

package main

func main() {
	undefinedHelper()
	go undefinedHelper()
}
`)
	if err := os.WriteFile(filepath.Join(dir, "lib.go"), []byte("// Package lib is clean.\npackage lib\n\nfunc fine() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkTree(dir, registry)
	if err != nil {
		t.Fatalf("constraint-excluded file poisoned the run: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("constraint-excluded file reported findings:\n%s", joinFindings(findings))
	}
}

// TestMixedPackageClausesInOneDir: a //go:build ignore'd main-package
// generator script cannot break its host package, and two compilable
// package clauses in one directory each type-check as their own unit.
func TestMixedPackageClausesInOneDir(t *testing.T) {
	dir := writeFixtureFile(t, "lib.go", `package lib

import "errors"

var ErrBoom = errors.New("boom")

func compare(err error) bool {
	return err == ErrBoom
}
`)
	other := `package libtool

func detach(work func()) {
	go work()
}
`
	if err := os.WriteFile(filepath.Join(dir, "tool.go"), []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkTree(dir, registry)
	if err != nil {
		t.Fatal(err)
	}
	joined := joinFindings(findings)
	if !strings.Contains(joined, "sentinel ErrBoom") {
		t.Errorf("lib unit finding missing:\n%s", joined)
	}
	if !strings.Contains(joined, "go statement in detach") {
		t.Errorf("libtool unit finding missing:\n%s", joined)
	}
}
