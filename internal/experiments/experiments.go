// Package experiments regenerates the paper-shaped tables of the
// reproduction: the canonical evaluations of the algorithms the SIGMOD'96
// tutorial surveys (A1-A6, S1, C1-C4, T1-T3, K1, R1, Q1, E1), the SIGMOD'00
// pattern-growth support ladder (P3), and the fault-tolerance cost table
// (F1). Each experiment prints a plain-text table shaped like its source
// figure; the lineups run the published serial comparison (no worker
// fan-out). cmd/dmbench is the CLI front end. Performance of the engine
// stack itself — parallel counting, incremental maintenance, the
// distributed transport, serving and durability — is measured by the
// bench/ harness, not here.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// Scale selects workload sizes.
type Scale int

const (
	// Quick runs in seconds; used by tests and -quick.
	Quick Scale = iota
	// Full approximates the papers' (scaled-down) workloads.
	Full
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, s Scale) error
}

// ErrUnknown reports a bad experiment id.
var ErrUnknown = errors.New("experiments: unknown experiment id")

// All returns the registry in run order.
func All() []Experiment {
	return []Experiment{
		{ID: "A1", Title: "Execution time vs minimum support (VLDB'94 Fig. 4)", Run: RunA1},
		{ID: "A2", Title: "Per-pass candidate and frequent itemset counts (VLDB'94)", Run: RunA2},
		{ID: "A3", Title: "Scale-up: number of transactions (VLDB'94 Fig. 6)", Run: RunA3},
		{ID: "A4", Title: "Scale-up: transaction size (VLDB'94 Fig. 7)", Run: RunA4},
		{ID: "A5", Title: "Partition: partitions vs time (VLDB'95)", Run: RunA5},
		{ID: "A6", Title: "Eclat and Sampling vs Apriori", Run: RunA6},
		{ID: "S1", Title: "GSP vs AprioriAll (EDBT'96)", Run: RunS1},
		{ID: "C1", Title: "k-medoid family: time and cost vs n (CLARANS, VLDB'94)", Run: RunC1},
		{ID: "C2", Title: "DBSCAN vs k-means on non-convex shapes (KDD'96)", Run: RunC2},
		{ID: "C3", Title: "BIRCH vs k-means: time and quality vs n (SIGMOD'96)", Run: RunC3},
		{ID: "C4", Title: "Hierarchical linkage comparison", Run: RunC4},
		{ID: "T1", Title: "Classifier accuracy on benchmark functions (cross-validated)", Run: RunT1},
		{ID: "T2", Title: "Decision-tree pruning ablation", Run: RunT2},
		{ID: "T3", Title: "Decision-tree training time vs examples (SLIQ-style)", Run: RunT3},
		{ID: "K1", Title: "k-d tree vs brute-force query time", Run: RunK1},
		{ID: "R1", Title: "Rule extraction from decision trees", Run: RunR1},
		{ID: "Q1", Title: "Quantitative association rules (SIGMOD'96)", Run: RunQ1},
		{ID: "E1", Title: "Bagging and boosting vs single trees", Run: RunE1},
		{ID: "P3", Title: "Pattern growth (FP-growth) vs candidate generation across supports", Run: RunP3},
		{ID: "F1", Title: "Fault tolerance: fault-free overhead and failover recovery", Run: RunF1},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknown, id)
}

// IDs returns all experiment ids sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// timeIt measures fn's wall-clock duration.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// header prints the experiment banner.
func header(w io.Writer, e string, title string) {
	fmt.Fprintf(w, "== EXP-%s: %s ==\n", e, title)
}
