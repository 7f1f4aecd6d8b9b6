package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/assoc"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// engineFixture returns the T10.I4 workload EXP-P3 and EXP-F1 run on.
func engineFixture(s Scale) (*transactions.DB, string, error) {
	d := 1000
	if s == Full {
		d = 4000
	}
	db, err := synth.Baskets(synth.TxI(10, 4, d, 94))
	return db, fmt.Sprintf("T10.I4.D%d", d), err
}

// engineMinSup is the fixed support EXP-F1 mines engineFixture at.
const engineMinSup = 0.0075

// allocStats is the heap allocation delta of one measured run.
type allocStats struct {
	Bytes  uint64
	Allocs uint64
}

// bestOf mines three times and returns the fastest run's wall-clock
// duration, allocation delta (via runtime.MemStats, so allocations on
// every goroutine the miner spawns are included) and Result — the usual
// noise guard for coarse single-shot timings.
func bestOf(m assoc.Miner, db *transactions.DB, minSup float64) (*assoc.Result, time.Duration, allocStats, error) {
	var (
		best      time.Duration
		bestAlloc allocStats
		bestRes   *assoc.Result
	)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := m.Mine(db, minSup)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, allocStats{}, err
		}
		if i == 0 || d < best {
			best = d
			bestAlloc = allocStats{Bytes: m1.TotalAlloc - m0.TotalAlloc, Allocs: m1.Mallocs - m0.Mallocs}
			bestRes = res
		}
	}
	return bestRes, best, bestAlloc, nil
}

// p3SupportLevels is the EXP-P3 support ladder. It runs deliberately
// lower than engineMinSup: the pattern-growth argument is about the
// low-support regime, where level-wise candidate sets explode while the
// FP-tree only deepens a little. The quick scale doubles the relative
// supports so the absolute count floor stays meaningful on the smaller
// fixture (D1000 at 0.001 would mean "appears once" — a combinatorial
// blowup that measures nothing).
func p3SupportLevels(s Scale) []float64 {
	if s == Full {
		return []float64{0.01, 0.005, 0.0033, 0.002, 0.001}
	}
	return []float64{0.02, 0.01, 0.0066, 0.004, 0.002}
}

// namedMiner is one lineup entry: a miner under the name its table prints.
type namedMiner struct {
	Name  string
	Miner assoc.Miner
}

// p3Lineup returns the engines the pattern-growth sweep compares: the
// level-wise reference (first, so speedups are relative to it), the
// vertical (bitset) engine, and pattern growth.
func p3Lineup() []namedMiner {
	return []namedMiner{
		{"Apriori", &assoc.Apriori{}},
		{"Eclat", &assoc.Eclat{}},
		{"FPGrowth", &assoc.FPGrowth{}},
	}
}

// patternRun is one timed (miner, support) row of EXP-P3.
type patternRun struct {
	Miner    string
	MinSup   float64
	Frequent int // itemsets found (identical across miners)
	Millis   float64
	Speedup  float64 // Apriori time / this time, same support
	allocStats
}

// measurePattern runs the EXP-P3 sweep: every lineup engine at every
// support level, best-of-three wall clock with the fastest run's
// allocations, failing if the engines disagree on the number of itemsets.
func measurePattern(s Scale) (fixture string, runs []patternRun, err error) {
	db, fixture, err := engineFixture(s)
	if err != nil {
		return "", nil, err
	}
	for _, minSup := range p3SupportLevels(s) {
		var aprioriMS float64
		var frequent int
		for i, e := range p3Lineup() {
			res, d, alloc, err := bestOf(e.Miner, db, minSup)
			if err != nil {
				return "", nil, err
			}
			msVal := float64(d.Microseconds()) / 1000.0
			if i == 0 {
				aprioriMS, frequent = msVal, res.NumFrequent()
			} else if res.NumFrequent() != frequent {
				return "", nil, fmt.Errorf("EXP-P3: %s found %d itemsets at %v, want %d",
					e.Name, res.NumFrequent(), minSup, frequent)
			}
			speedup := 0.0
			if msVal > 0 {
				speedup = aprioriMS / msVal
			}
			runs = append(runs, patternRun{
				Miner: e.Name, MinSup: minSup, Frequent: frequent,
				Millis: msVal, Speedup: speedup, allocStats: alloc,
			})
		}
	}
	return fixture, runs, nil
}

// RunP3 prints the pattern-growth sweep as a table: each engine at each
// support level with wall-clock, speedup over Apriori, and allocations.
func RunP3(w io.Writer, s Scale) error {
	header(w, "P3", "pattern growth vs candidate generation across supports")
	fixture, runs, err := measurePattern(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s (GOMAXPROCS=%d)\n", fixture, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-10s%-16s%10s%12s%10s%12s%12s\n",
		"minsup", "miner", "frequent", "ms", "speedup", "alloc MB", "allocs")
	for _, r := range runs {
		fmt.Fprintf(w, "%-10.4f%-16s%10d%12.1f%10.2f%12.1f%12d\n",
			r.MinSup, r.Miner, r.Frequent, r.Millis, r.Speedup, float64(r.Bytes)/1e6, r.Allocs)
	}
	// The lineup ends with FPGrowth and the ladder with its lowest support.
	fmt.Fprintf(w, "\nFPGrowth at the lowest support: %.2fx over Apriori\n", runs[len(runs)-1].Speedup)
	fmt.Fprintln(w, "note: speedup is Apriori's time over the run's time at the same support; "+
		"pattern growth wins grow as support falls and candidate sets explode")
	return nil
}
