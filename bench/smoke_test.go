package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smokeRun runs one workload at the smoke scale.
func smokeRun(t *testing.T, name string, seed int64, traced bool) report {
	t.Helper()
	rep, err := runWorkload(time.Now(), io.Discard, name, "smoke", seed, 1, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", name, seed, traced, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s seed %d traced %v: correct=%v failed=%d attempted=%d", name, seed, traced, rep.Correct, rep.Failed, rep.Attempted)
	}
	return rep
}

// Every workload runs end to end at the smoke scale, checks its own
// outputs, and reports every end-to-end metric with a value that is not 0.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadDefs {
		rep := smokeRun(t, w.name, 1, false)
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(rep.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if mv, ok := rep.Metrics[m.name]; !ok || mv.Value <= 0 || mv.Unit != m.unit {
				t.Errorf("%s: %s = %+v", w.name, m.name, mv)
			}
		}
	}
}

// The traced run reports every per-layer metric, writes a span file whose
// self times add up to the traced ops, and — the property later claims
// rest on — repeats every metric marked exact exactly for one seed, while
// another seed gives other inputs and so other counts.
func TestSmokeTracedIsDeterministic(t *testing.T) {
	for _, w := range workloadDefs {
		a := smokeRun(t, w.name, 1, true)
		b := smokeRun(t, w.name, 1, true)
		c := smokeRun(t, w.name, 2, true)
		if len(a.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(a.Metrics), len(perLayer))
		}
		if cov := a.Metrics["bench.span_coverage"].Value; cov < 0.95 || cov > 1.05 {
			t.Errorf("%s: per-layer self times cover %.3f of the traced op time", w.name, cov)
		}
		moved, nonzero := 0, 0
		for _, m := range perLayer {
			if _, ok := a.Metrics[m.name]; !ok {
				t.Errorf("%s: %s missing", w.name, m.name)
			}
			if !m.exact {
				continue
			}
			if a.Metrics[m.name].Value != b.Metrics[m.name].Value {
				t.Errorf("%s: exact metric %s read %v then %v for one seed", w.name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value)
			}
			if a.Metrics[m.name].Value != 0 {
				nonzero++
			}
			if a.Metrics[m.name].Value != c.Metrics[m.name].Value {
				moved++
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: no exact metric was measured", w.name)
		}
		// mine_dist's exact counts (calls, shards) do not depend on the data.
		if moved == 0 && w.name != "mine_dist" {
			t.Errorf("%s: another seed changed no exact metric", w.name)
		}
	}
}

// The span file is one JSON document of named, nested, op-tagged spans.
func TestSmokeSpanFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := runWorkload(time.Now(), io.Discard, "serve_write", "smoke", 1, 1, true, dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "serve_write.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, s := range doc.Spans {
		seen[s.Name] = true
		if s.End < s.Start || int(s.Parent) >= i || s.Op < 0 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	for _, want := range []string{rootSpan, "serve.append", "serve.delete", "wal.log_write", "wal.sync"} {
		if !seen[want] {
			t.Errorf("no %s span in the file", want)
		}
	}
}

// BENCHMARK.json is printed from the metric tables; the two must agree,
// and the file must stay inside the limits the driver enforces.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := describe(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -describe`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.name)
		if !unit.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 || (m.better != "lower" && m.better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s is missing")
	}
	for _, m := range perLayer {
		check(m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadDefs) < 2 || len(workloadDefs) > 8 || len(want) > 64<<10 {
		t.Error("BENCHMARK.json is outside the contract's size limits")
	}
	for _, w := range workloadDefs {
		check(w.name)
		if len(w.why) > 200 || workloads[w.name].setup == nil {
			t.Errorf("workload %s: why is %d characters, or it has no implementation", w.name, len(w.why))
		}
	}
}
