package experiments

import (
	"fmt"
	"io"

	"repro/internal/assoc"
	"repro/internal/assoc/reference"
	"repro/internal/ensemble"
	"repro/internal/quant"
	"repro/internal/synth"
	"repro/internal/tree"
)

// RunA6 compares the later-generation miners (Eclat's vertical
// intersections, Toivonen's sampling) against Apriori.
func RunA6(w io.Writer, s Scale) error {
	header(w, "A6", "Eclat and Sampling vs Apriori: execution time (ms)")
	d := 2000
	supports := []float64{0.02, 0.01, 0.005}
	if s == Full {
		d = 10000
		supports = []float64{0.02, 0.01, 0.005, 0.0033}
	}
	db, err := synth.Baskets(synth.TxI(10, 4, d, 94))
	if err != nil {
		return err
	}
	miners := []assoc.Miner{
		&assoc.Apriori{},
		&assoc.Eclat{},
		&reference.Sampling{},
		&reference.Sampling{SampleFraction: 0.1, LowerFactor: 0.7, Seed: 5},
	}
	fmt.Fprintf(w, "%-8s%14s%14s%14s%18s\n", "minsup",
		"Apriori", "Eclat", "Sampling(20%)", "Sampling(10%)")
	for _, sup := range supports {
		fmt.Fprintf(w, "%-8.2f", sup*100)
		for _, m := range miners {
			dur, err := timeIt(func() error {
				_, e := m.Mine(db, sup)
				return e
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%14s", ms(dur))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunQ1 reproduces the SIGMOD'96 quantitative-rules behaviour: rule counts
// and mining time as the interval partitioning and the maximum-support
// pruning vary, on the benchmark people table.
func RunQ1(w io.Writer, s Scale) error {
	header(w, "Q1", "quantitative rules: count and time vs bins / max-support")
	rows := 600
	if s == Full {
		rows = 3000
	}
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: rows, Function: 2, Seed: 71})
	if err != nil {
		return err
	}
	// MaxSupport = 1 (no pruning) is deliberately absent: without the
	// paper's maximum-support prune the frequent-itemset space over
	// nested intervals grows exponentially — the prune is the point.
	fmt.Fprintf(w, "%-6s%-10s%10s%12s%12s\n", "bins", "maxsup", "items", "rules", "time(ms)")
	for _, bins := range []int{4, 8} {
		for _, maxSup := range []float64{0.2, 0.35, 0.5} {
			var nRules, nItems int
			dur, err := timeIt(func() error {
				rules, codec, e := quant.Mine(tbl, quant.Config{Bins: bins, MaxSupport: maxSup}, 0.1, 0.7)
				if e != nil {
					return e
				}
				nRules, nItems = len(rules), len(codec.Items)
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-6d%-10.1f%10d%12d%12s\n", bins, maxSup, nItems, nRules, ms(dur))
		}
	}
	return nil
}

// RunE1 compares single trees against bagging and boosting on a clean
// diagonal-boundary task (where boosting shines) and a label-noisy task
// (where boosting famously does not, and bagging stays safe).
func RunE1(w io.Writer, s Scale) error {
	header(w, "E1", "ensembles: holdout accuracy (%) vs single trees")
	rows := 800
	if s == Full {
		rows = 2000
	}
	cases := []struct {
		name  string
		fn    int
		noise float64
	}{
		{"F7 clean (diagonal)", 7, 0},
		{"F5 15% label noise", 5, 0.15},
	}
	fmt.Fprintf(w, "%-22s%12s%12s%12s%12s\n", "task", "stump", "tree", "bagging", "adaboost")
	for _, c := range cases {
		train, err := synth.Classify(synth.ClassifyConfig{NumRows: rows, Function: c.fn, Noise: c.noise, Seed: 81})
		if err != nil {
			return err
		}
		test, err := synth.Classify(synth.ClassifyConfig{NumRows: rows / 2, Function: c.fn, Seed: 82})
		if err != nil {
			return err
		}
		stump, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio, MaxDepth: 2, MinLeaf: 2})
		if err != nil {
			return err
		}
		full, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio, MinLeaf: 2})
		if err != nil {
			return err
		}
		full.PrunePessimistic(0.25)
		bag, err := (&ensemble.Bagging{Rounds: 15, Tree: tree.Config{Criterion: tree.GainRatio, MinLeaf: 2}, Seed: 1}).Train(train)
		if err != nil {
			return err
		}
		boost, err := (&ensemble.AdaBoost{Rounds: 30, MaxDepth: 2, Seed: 1}).Train(train)
		if err != nil {
			return err
		}
		measure := func(p interface{ Predict([]float64) int }) float64 {
			correct := 0
			for i, row := range test.Rows {
				if p.Predict(row) == test.Class(i) {
					correct++
				}
			}
			return 100 * float64(correct) / float64(test.NumRows())
		}
		fmt.Fprintf(w, "%-22s%12.1f%12.1f%12.1f%12.1f\n",
			c.name, measure(stump), measure(full), measure(bag), measure(boost))
	}
	return nil
}
