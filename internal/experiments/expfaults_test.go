package experiments

import (
	"bytes"
	"testing"
)

func TestMeasureFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall-clock sweeps")
	}
	fixture, overhead, recovery, err := measureFaults(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if fixture == "" {
		t.Fatal("empty fixture name")
	}
	want := len(distEngines())
	if len(overhead) != want || len(recovery) != want {
		t.Fatalf("runs = %d overhead, %d recovery, want %d each", len(overhead), len(recovery), want)
	}
	for _, r := range overhead {
		if r.BareMillis <= 0 || r.GuardedMillis <= 0 {
			t.Errorf("%s: non-positive timing: %+v", r.Engine, r)
		}
		// A fault-free transport must trigger neither retries nor
		// failovers; the overhead target itself is timing-dependent, so
		// it is printed, not asserted.
		if r.Retries != 0 || r.Failovers != 0 {
			t.Errorf("%s: fault-free run retried or failed over: %+v", r.Engine, r)
		}
	}
	for _, r := range recovery {
		if r.Millis <= 0 {
			t.Errorf("%s: non-positive recovery timing: %+v", r.Engine, r)
		}
		if r.Failovers < 1 {
			t.Errorf("%s: recovery run recorded no failover: %+v", r.Engine, r)
		}
		if r.ShippedShards < 1 {
			t.Errorf("%s: recovery run shipped nothing: %+v", r.Engine, r)
		}
	}
}

func TestRunF1PrintsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall-clock sweeps")
	}
	var buf bytes.Buffer
	if err := RunF1(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EXP-F1", "overhead", "recovery", "Apriori", "FPGrowth", "failovers"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
