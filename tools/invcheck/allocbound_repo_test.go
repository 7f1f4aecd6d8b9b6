package main

import (
	"strings"
	"testing"
)

// TestAllocBoundReportsFPTreeSuppressedSites pins the analyzer against the
// real repository, not a fixture: internal/fptree/fptree.go carries the
// tree's only allocbound suppressions — the present-rank append in Insert
// and the node-arena append in step, which grows both halves of a node
// (the hot up array and the cold nodes array) in one statement under one
// directive; all bounded growth on a hot path.
// This test bypasses the suppression layer and asserts the raw analyzer
// still proves each of those sites, so the suppressions stay honest: if a
// refactor removes an allocation the stale directive shows up here, and
// if allocbound regresses into missing them the repo gate would silently
// stop guarding the hot path.
func TestAllocBoundReportsFPTreeSuppressedSites(t *testing.T) {
	units, err := sharedLoader.loadUnits("../../internal/fptree")
	if err != nil {
		t.Fatalf("loading internal/fptree: %v", err)
	}
	var raw []Finding
	for _, u := range units {
		if u.Pkg != "fptree" {
			continue
		}
		for _, f := range u.Files {
			raw = append(raw, analyzerAllocBound.Run(f)...)
		}
	}
	sortFindings(raw)
	for _, fd := range raw {
		if !strings.HasSuffix(fd.File, "fptree.go") {
			t.Errorf("allocbound finding outside fptree.go: %s", fd)
		}
	}

	// The known sites, in source order (step's two appends share a line).
	wants := []string{
		"Insert appends to t.present",
		"step appends to t.nodes",
		"step appends to t.up",
	}
	if len(raw) != len(wants) {
		t.Fatalf("raw fptree findings = %d, want %d:\n%s", len(raw), len(wants), joinFindings(raw))
	}
	for i, want := range wants {
		if !strings.Contains(raw[i].Message, want) {
			t.Errorf("finding %d = %s, want one matching %q", i, raw[i], want)
		}
	}

	// And the suppressed tree is clean: every raw finding above carries a
	// reasoned directive.
	var after []Finding
	for _, u := range units {
		after = append(after, checkUnit(u, []*Analyzer{analyzerAllocBound})...)
	}
	if len(after) != 0 {
		t.Errorf("suppressed tree not clean:\n%s", joinFindings(after))
	}
}
