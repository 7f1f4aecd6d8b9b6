package experiments

import "testing"

func TestMeasurePattern(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall-clock sweeps")
	}
	fixture, runs, err := measurePattern(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if fixture == "" {
		t.Fatal("empty fixture name")
	}
	// 3 engines x 5 support levels.
	if len(runs) != 15 {
		t.Fatalf("runs = %d, want 15", len(runs))
	}
	frequent := map[float64]int{}
	for _, r := range runs {
		if r.Millis <= 0 || r.Speedup <= 0 || r.Frequent <= 0 {
			t.Errorf("run %+v has non-positive fields", r)
		}
		if r.Allocs == 0 || r.Bytes == 0 {
			t.Errorf("run %+v is missing allocation stats", r)
		}
		if r.Miner == "Apriori" {
			if r.Speedup != 1.0 {
				t.Errorf("Apriori reference run %+v should have speedup 1.0", r)
			}
			frequent[r.MinSup] = r.Frequent
		} else if r.Frequent != frequent[r.MinSup] {
			t.Errorf("run %+v disagrees with Apriori's %d itemsets", r, frequent[r.MinSup])
		}
	}
}
