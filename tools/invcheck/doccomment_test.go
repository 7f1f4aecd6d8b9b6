package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDocCommentGoodFixture: the good tree is clean because the walk
// skips its testdata/ subdirectory — the same analyzer over that
// subdirectory as a root reports its undocumented code.
func TestDocCommentGoodFixture(t *testing.T) {
	good := filepath.Join("testdata", "doccomment", "good")
	if findings := runOn(t, "doccomment", good); len(findings) != 0 {
		t.Fatalf("good fixture reported %d findings:\n%s", len(findings), joinFindings(findings))
	}
	skipped := runOn(t, "doccomment", filepath.Join(good, "testdata"))
	if len(skipped) != 3 {
		t.Fatalf("skipped subtree as a root reported %d findings, want 3:\n%s", len(skipped), joinFindings(skipped))
	}
}

// TestDocCommentBadFixture: unexported identifiers, methods on
// unexported types and _test.go files stay exempt, and every finding
// is in file:line form.
func TestDocCommentBadFixture(t *testing.T) {
	bad := runOn(t, "doccomment", filepath.Join("testdata", "doccomment", "bad"))
	joined := joinFindings(bad)
	for _, exempt := range []string{"unexportedIsFine", "Quiet", "TestExemptFromTheGate"} {
		if strings.Contains(joined, exempt) {
			t.Errorf("exempt identifier %q reported:\n%s", exempt, joined)
		}
	}
	for _, f := range bad {
		if f.File == "" || f.Line < 1 {
			t.Errorf("finding has no file:line position: %s", f)
		}
	}
}

// TestDocCommentMissingRoot: a nonexistent root is an error, not a pass.
func TestDocCommentMissingRoot(t *testing.T) {
	if _, err := checkTree(filepath.Join("testdata", "nope"), []*Analyzer{analyzerDocComment}); err == nil {
		t.Fatal("missing root did not error")
	}
}

// TestDocCommentBlockDoc: a doc comment on a const/var/type block
// covers every spec in the block.
func TestDocCommentBlockDoc(t *testing.T) {
	dir := writeFixtureFile(t, "block.go", `// Package x documents its blocks, not their specs.
package x

// Block comment covers the group.
const (
	A = 1
	B = 2
)

// Types too.
type (
	T1 struct{}
	T2 struct{}
)
`)
	if findings := runOn(t, "doccomment", dir); len(findings) != 0 {
		t.Fatalf("documented blocks reported:\n%s", joinFindings(findings))
	}
}

// TestDocCommentGenericReceiver: methods on generic exported types are
// checked whatever the number of type parameters.
func TestDocCommentGenericReceiver(t *testing.T) {
	dir := writeFixtureFile(t, "generic.go", `// Package x has undocumented generic methods.
package x

// List is documented.
type List[T any] struct{}

func (l *List[T]) Push(v T) {}

// Pair is documented.
type Pair[K comparable, V any] struct{}

func (p Pair[K, V]) Key() {}
`)
	findings := runOn(t, "doccomment", dir)
	joined := joinFindings(findings)
	if len(findings) != 2 || !strings.Contains(joined, "List.Push") || !strings.Contains(joined, "Pair.Key") {
		t.Fatalf("generic receiver check =\n%s\nwant one List.Push and one Pair.Key finding", joined)
	}
}
