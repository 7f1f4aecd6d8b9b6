package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"A1", "A2", "A3", "A4", "A5", "A6", "C1", "C2", "C3", "C4", "E1", "F1", "K1", "P3", "Q1", "R1", "S1", "T1", "T2", "T3"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("C2")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "C2" {
		t.Errorf("ID = %s", e.ID)
	}
	if _, err := ByID("ZZ"); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown error = %v", err)
	}
}

// TestEveryExperimentRunsQuick executes the whole suite at Quick scale and
// sanity-checks the output headers. This is the integration test of the
// entire library: every substrate and every algorithm executes.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite takes tens of seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Quick); err != nil {
				t.Fatalf("EXP-%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "== EXP-"+e.ID) {
				t.Errorf("missing header in output: %q", out[:minInt(80, len(out))])
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMsFormatting(t *testing.T) {
	if got := ms(1500 * 1000); got != "1.5" {
		// 1.5ms in nanoseconds.
		t.Errorf("ms = %q", got)
	}
}
