package main

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/mining"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadSequences(t *testing.T) {
	path := writeFile(t, "seq.txt", "1 2 ; 3\n4 ; 5 6 ; 7\n\n")
	data, err := readSequences(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 {
		t.Fatalf("customers = %d", len(data))
	}
	if len(data[0]) != 2 || len(data[1]) != 3 {
		t.Errorf("transaction counts = %d, %d", len(data[0]), len(data[1]))
	}
	if !slices.Contains(data[0][0], 1) || !slices.Contains(data[0][0], 2) {
		t.Errorf("first transaction = %v", data[0][0])
	}
}

func TestReadSequencesBadInput(t *testing.T) {
	path := writeFile(t, "bad.txt", "1 x ; 3\n")
	if _, err := readSequences(path); err == nil {
		t.Error("non-integer item should error")
	}
	if _, err := readSequences(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadPoints(t *testing.T) {
	path := writeFile(t, "pts.csv", "x,y,name\n1,2,a\n3,4,b\n")
	pts, err := readPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(pts[0]) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[1][0] != 3 || pts[1][1] != 4 {
		t.Errorf("pts[1] = %v", pts[1])
	}
}

func TestReadPointsErrors(t *testing.T) {
	allText := writeFile(t, "text.csv", "a,b\nx,y\n")
	if _, err := readPoints(allText); err == nil {
		t.Error("no numeric columns should error")
	}
	withMissing := writeFile(t, "missing.csv", "x\n1\n?\n")
	if _, err := readPoints(withMissing); err == nil {
		t.Error("missing numeric cell should error")
	}
}

func TestRunAssocEndToEnd(t *testing.T) {
	path := writeFile(t, "baskets.txt", "1 2 3\n1 2\n2 3\n1 2 3\n2\n1 2\n")
	if err := runAssoc([]string{"-in", path, "-minsup", "0.3", "-minconf", "0.5"}); err != nil {
		t.Fatalf("runAssoc: %v", err)
	}
	// The reference engines are not selectable, nor is "Distributed"
	// (-dist is its way in): the name is rejected with the list of
	// engines that are, and main exits 1.
	for _, name := range []string{"AIS", "DHP", "Distributed"} {
		err := runAssoc([]string{"-in", path, "-algo", name})
		if !errors.Is(err, mining.ErrUnknownAlgorithm) || cliutil.ExitCode(err) != 1 ||
			!strings.Contains(err.Error(), "[Apriori Eclat FPGrowth Auto]") {
			t.Errorf("-algo %s: err = %v (exit %d), want ErrUnknownAlgorithm listing the four engines", name, err, cliutil.ExitCode(err))
		}
	}
}

func TestRunAssocIncrementalEndToEnd(t *testing.T) {
	var baskets string
	for i := 0; i < 40; i++ {
		baskets += "1 2 3\n1 2\n2 3\n"
	}
	path := writeFile(t, "baskets.txt", baskets)
	// No updates: behaves like a plain mine through the sharded backend.
	if err := runAssoc([]string{"-in", path, "-minsup", "0.3", "-incremental", "-verify"}); err != nil {
		t.Fatalf("incremental without updates: %v", err)
	}
	// Appends, deletes and explicit maintain checkpoints, verified against
	// from-scratch runs at every step.
	updates := writeFile(t, "updates.txt",
		"# append then re-maintain\n+ 1 2 3\n+ 1 3\n=\n- 0\n- 5\n=\n+ 2 3\n")
	if err := runAssoc([]string{
		"-in", path, "-minsup", "0.3", "-incremental",
		"-updates", updates, "-shardcap", "64", "-verify",
	}); err != nil {
		t.Fatalf("incremental with updates: %v", err)
	}
	// Bad update scripts fail loudly.
	for _, bad := range []string{"? 1\n", "- notanint\n", "- 1 2\n", "+ x\n"} {
		badPath := writeFile(t, "bad.txt", bad)
		if err := runAssoc([]string{"-in", path, "-minsup", "0.3", "-incremental", "-updates", badPath}); err == nil {
			t.Errorf("update script %q should error", bad)
		}
	}
	// Deleting a tid out of range fails.
	oob := writeFile(t, "oob.txt", "- 100000\n")
	if err := runAssoc([]string{"-in", path, "-minsup", "0.3", "-incremental", "-updates", oob}); err == nil {
		t.Error("out-of-range delete should error")
	}
}

func TestRunSeqEndToEnd(t *testing.T) {
	path := writeFile(t, "seq.txt", "1 ; 2\n1 ; 2 ; 3\n1 ; 2\n")
	if err := runSeq([]string{"-in", path, "-minsup", "0.5"}); err != nil {
		t.Fatalf("runSeq: %v", err)
	}
	if err := runSeq([]string{"-in", path, "-algo", "AprioriAll"}); err != nil {
		t.Fatalf("runSeq AprioriAll: %v", err)
	}
	if err := runSeq([]string{"-in", path, "-algo", "bogus"}); err == nil {
		t.Error("unknown sequence miner should error")
	}
}

func TestRunClusterEndToEnd(t *testing.T) {
	csv := "x,y\n"
	for i := 0; i < 20; i++ {
		csv += "1,1\n100,100\n"
	}
	path := writeFile(t, "pts.csv", csv)
	for _, algo := range []string{"kmeans", "pam", "clara", "clarans", "birch"} {
		if err := runCluster([]string{"-in", path, "-k", "2", "-algo", algo}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	if err := runCluster([]string{"-in", path, "-algo", "dbscan", "-eps", "5", "-minpts", "3"}); err != nil {
		t.Fatalf("dbscan: %v", err)
	}
	if err := runCluster([]string{"-in", path, "-algo", "bogus"}); err == nil {
		t.Error("unknown clusterer should error")
	}
}

func TestRunClassifyEndToEnd(t *testing.T) {
	csv := "age,class\n"
	for i := 0; i < 30; i++ {
		csv += "20,young\n70,old\n"
	}
	path := writeFile(t, "people.csv", csv)
	if err := runClassify([]string{"-in", path, "-class", "class", "-folds", "3"}); err != nil {
		t.Fatalf("compare-all: %v", err)
	}
	if err := runClassify([]string{"-in", path, "-class", "class", "-algo", "naivebayes", "-folds", "3"}); err != nil {
		t.Fatalf("single: %v", err)
	}
	if err := runClassify([]string{"-in", path, "-class", "nosuch"}); err == nil {
		t.Error("bad class column should error")
	}
}

func TestRunQuantEndToEnd(t *testing.T) {
	csv := "age,product\n"
	for i := 0; i < 30; i++ {
		csv += "25,A\n65,B\n"
	}
	path := writeFile(t, "people.csv", csv)
	if err := runQuant([]string{"-in", path, "-minsup", "0.2", "-minconf", "0.8"}); err != nil {
		t.Fatalf("runQuant: %v", err)
	}
	if err := runQuant([]string{"-in", filepath.Join(t.TempDir(), "nope.csv")}); err == nil {
		t.Error("missing file should error")
	}
}

func TestInvalidFlagsExitNonzero(t *testing.T) {
	// Every subcommand reports bad flags with the shared cliutil error
	// (consistent text, exit code 2 from main) instead of each FlagSet
	// improvising its own behavior.
	runs := map[string]func([]string) error{
		"assoc":    runAssoc,
		"seq":      runSeq,
		"cluster":  runCluster,
		"classify": runClassify,
		"quant":    runQuant,
	}
	for name, run := range runs {
		err := run([]string{"-definitely-not-a-flag"})
		if !errors.Is(err, cliutil.ErrInvalidFlags) {
			t.Errorf("%s: err = %v, want ErrInvalidFlags", name, err)
		}
		if cliutil.ExitCode(err) != 2 {
			t.Errorf("%s: exit code = %d, want 2", name, cliutil.ExitCode(err))
		}
	}
	if err := runAssoc([]string{"-workers", "NaN"}); !errors.Is(err, cliutil.ErrInvalidFlags) {
		t.Errorf("bad -workers value: err = %v, want ErrInvalidFlags", err)
	}
}

func TestRunAssocDistributed(t *testing.T) {
	path := writeFile(t, "baskets.txt", "1 2 3\n1 2\n2 3\n1 2 3\n2\n1 2\n")
	if err := runAssoc([]string{"-in", path, "-minsup", "0.3", "-dist", "-distworkers", "2"}); err != nil {
		t.Fatalf("distributed: %v", err)
	}
	if err := runAssoc([]string{"-in", path, "-minsup", "0.3", "-algo", "FPGrowth", "-dist", "-distworkers", "2"}); err != nil {
		t.Fatalf("distributed fpgrowth: %v", err)
	}
	// The facade owns the rule for which engines -dist takes, one-shot
	// and incremental alike.
	for _, algo := range []string{"Eclat", "Distributed"} {
		for _, extra := range [][]string{nil, {"-incremental"}} {
			args := append([]string{"-in", path, "-minsup", "0.3", "-algo", algo, "-dist"}, extra...)
			if err := runAssoc(args); !errors.Is(err, mining.ErrBadOption) {
				t.Errorf("%v: err = %v, want ErrBadOption", args, err)
			}
		}
	}
}
