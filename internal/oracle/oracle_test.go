package oracle

import (
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// paperRows is the worked example of Agrawal & Srikant (VLDB'94 Fig. 3),
// one row unordered and with a repeated item, which must not matter.
var paperRows = [][]int{{1, 3, 4}, {5, 3, 2}, {1, 2, 3, 5}, {2, 5, 2}}

// TestPaperExample checks the oracle against the example's hand-counted
// L1 to L3 at minsup 50 % (2 rows) and its rules at confidence 0.6.
func TestPaperExample(t *testing.T) {
	res := Frequent(paperRows, 0.5)
	if got, want := string(Canonical(res)), "1:2\n2:3\n3:3\n5:3\n1,3:2\n2,3:2\n2,5:3\n3,5:2\n2,3,5:2\n"; got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
	var got []string
	for _, r := range Rules(res, 0.6) {
		got = append(got, fmt.Sprintf("%v => %v %d %.4f %.4f", r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift))
	}
	want := []string{
		"[2] => [5] 3 1.0000 1.3333",
		"[5] => [2] 3 1.0000 1.3333",
		"[1] => [3] 2 1.0000 1.3333",
		"[2 3] => [5] 2 1.0000 1.3333",
		"[3 5] => [2] 2 1.0000 1.3333",
		"[2] => [3] 2 0.6667 0.8889",
		"[2] => [3 5] 2 0.6667 1.3333",
		"[2 5] => [3] 2 0.6667 0.8889",
		"[3] => [1] 2 0.6667 1.3333",
		"[3] => [2] 2 0.6667 0.8889",
		"[3] => [2 5] 2 0.6667 0.8889",
		"[3] => [5] 2 0.6667 0.8889",
		"[5] => [2 3] 2 0.6667 1.3333",
		"[5] => [3] 2 0.6667 0.8889",
	}
	if !slices.Equal(got, want) {
		t.Errorf("Rules:\n got %q\nwant %q", got, want)
	}
	if n := len(Rules(res, 0.7)); n != 5 {
		t.Errorf("Rules at confidence 0.7: %d, want the 5 of confidence 1", n)
	}
	if c, ok := Count(res, []int{2, 3, 5}); c != 2 || !ok {
		t.Errorf("Count({2,3,5}) = %d, %v; want 2, true", c, ok)
	}
	if c, ok := Count(res, []int{4}); c != 0 || ok {
		t.Errorf("Count({4}) = %d, %v; want 0, false", c, ok)
	}
	if s := Support(paperRows, []int{4}); s != 1 {
		t.Errorf("Support({4}) = %d, want 1", s)
	}
	if s := Support(paperRows, []int{5, 2}); s != 3 {
		t.Errorf("Support({5,2}) = %d, want 3", s)
	}
	if res := Frequent(paperRows, 0.51); len(res.Sets) != 4 || Canonical(Frequent([][]int(nil), 0.5)) != nil {
		t.Errorf("minsup 0.51 (3 rows) keeps %d itemsets, want the 4 of 2 and 5; an empty database must encode as nil", len(res.Sets))
	}
}

// TestImportBoundary keeps the oracle independent of what it checks: it
// depends on the standard library alone, and no non-test package of the
// module depends on it.
func TestImportBoundary(t *testing.T) {
	const self = "repro/internal/oracle"
	list := func(args ...string) []string {
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")
	}
	for _, line := range list("-deps", "-f", "{{.ImportPath}} {{.Standard}}", self) {
		if path, std, _ := strings.Cut(line, " "); std != "true" && path != self {
			t.Errorf("the oracle depends on %s, which is not in the standard library", path)
		}
	}
	for _, line := range list("-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "repro/...") {
		if pkg, deps := strings.Fields(line)[0], strings.Fields(line)[1:]; pkg != self && slices.Contains(deps, self) {
			t.Errorf("%s depends on the oracle; only tests may", pkg)
		}
	}
}
