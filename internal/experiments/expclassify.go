package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/synth"
	"repro/internal/tree"
)

// RunT1 reproduces the classifier-comparison accuracy table over the
// benchmark functions.
func RunT1(w io.Writer, s Scale) error {
	header(w, "T1", "cross-validated accuracy (%) on benchmark functions")
	rows, folds := 500, 3
	if s == Full {
		rows, folds = 2000, 10
	}
	trainers := core.Classifiers()
	fmt.Fprintf(w, "%-10s", "function")
	for _, tr := range trainers {
		fmt.Fprintf(w, "%16s", tr.Name)
	}
	fmt.Fprintf(w, "%16s\n", "majority")
	for fn := 1; fn <= 5; fn++ {
		tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: rows, Function: fn, Seed: int64(1000 + fn)})
		if err != nil {
			return err
		}
		comps, err := core.CompareClassifiers(tbl, trainers, folds, 7)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "F%-9d", fn)
		for _, c := range comps {
			fmt.Fprintf(w, "%16.1f", c.Accuracy*100)
		}
		dist, err := tbl.ClassDistribution()
		if err != nil {
			return err
		}
		best := 0
		for _, n := range dist {
			if n > best {
				best = n
			}
		}
		fmt.Fprintf(w, "%16.1f\n", 100*float64(best)/float64(rows))
	}
	return nil
}

// RunT2 reproduces the pruning ablation: tree size and holdout accuracy of
// the unpruned, pessimistically pruned, and reduced-error pruned trees on
// noisy data.
func RunT2(w io.Writer, s Scale) error {
	header(w, "T2", "pruning ablation: tree size / holdout accuracy (%) with 10% label noise")
	rows := 1200
	if s == Full {
		rows = 5000
	}
	fmt.Fprintf(w, "%-10s%20s%20s%20s\n", "function", "unpruned", "pessimistic", "reduced-error")
	for _, fn := range []int{2, 5} {
		full, err := synth.Classify(synth.ClassifyConfig{NumRows: rows, Function: fn, Noise: 0.10, Seed: int64(2000 + fn)})
		if err != nil {
			return err
		}
		train, hold, err := full.Split(2.0 / 3.0)
		if err != nil {
			return err
		}
		test, err := synth.Classify(synth.ClassifyConfig{NumRows: rows / 2, Function: fn, Seed: int64(3000 + fn)})
		if err != nil {
			return err
		}

		unpruned, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio})
		if err != nil {
			return err
		}
		pess, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio})
		if err != nil {
			return err
		}
		pess.PrunePessimistic(0.25)
		red, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio})
		if err != nil {
			return err
		}
		if err := red.PruneReducedError(hold); err != nil {
			return err
		}
		cell := func(tr *tree.Tree) string {
			return fmt.Sprintf("%d / %.1f", tr.Size(), 100*treeAccuracy(tr, test))
		}
		fmt.Fprintf(w, "F%-9d%20s%20s%20s\n", fn, cell(unpruned), cell(pess), cell(red))
	}
	return nil
}

func treeAccuracy(tr *tree.Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i, row := range tbl.Rows {
		if tr.Predict(row) == tbl.Class(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRows())
}

// RunT3 reproduces the SLIQ-style training-time scalability plot.
func RunT3(w io.Writer, s Scale) error {
	header(w, "T3", "decision-tree training time (ms) vs training examples")
	sizes := []int{1000, 2000, 5000}
	if s == Full {
		sizes = []int{1000, 2000, 5000, 10000, 25000, 50000}
	}
	fmt.Fprintf(w, "%-10s%12s%12s\n", "n", "F1", "F7")
	for _, n := range sizes {
		row := fmt.Sprintf("%-10d", n)
		for _, fn := range []int{1, 7} {
			tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: n, Function: fn, Seed: int64(4000 + fn)})
			if err != nil {
				return err
			}
			dur, err := timeIt(func() error {
				_, e := tree.Build(tbl, tree.Config{Criterion: tree.GainRatio, MinLeaf: 5})
				return e
			})
			if err != nil {
				return err
			}
			row += fmt.Sprintf("%12s", ms(dur))
		}
		fmt.Fprintln(w, row)
	}
	return nil
}

// RunK1 reproduces the k-d tree query-time figure against brute force,
// including the dimensionality penalty.
func RunK1(w io.Writer, s Scale) error {
	header(w, "K1", "10-NN query time (µs/query): k-d tree vs brute force")
	sizes := []int{1000, 10000}
	queries := 200
	if s == Full {
		sizes = []int{1000, 10000, 100000}
		queries = 1000
	}
	fmt.Fprintf(w, "%-10s%-8s%14s%14s\n", "n", "dims", "k-d tree", "brute")
	for _, dims := range []int{2, 8} {
		for _, n := range sizes {
			pts, qs := kdWorkload(n, queries, dims)
			tr, err := knn.NewKDTree(pts)
			if err != nil {
				return err
			}
			durTree, err := timeIt(func() error {
				for _, q := range qs {
					if _, e := tr.KNearest(q, 10); e != nil {
						return e
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			durBrute, err := timeIt(func() error {
				for _, q := range qs {
					if _, e := knn.BruteKNearest(pts, q, 10); e != nil {
						return e
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			perQ := func(d float64) string { return fmt.Sprintf("%.1f", d/float64(queries)) }
			fmt.Fprintf(w, "%-10d%-8d%14s%14s\n", n, dims,
				perQ(float64(durTree.Microseconds())), perQ(float64(durBrute.Microseconds())))
		}
	}
	return nil
}

func kdWorkload(n, queries, dims int) (pts, qs [][]float64) {
	p, _ := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: n + queries, NumCluster: 8, Dims: dims, Spread: 3, Separation: 100, Seed: 55,
	})
	return p.X[:n], p.X[n:]
}

// RunR1 reproduces the rules-from-tree workflow summary: rule counts,
// pure-subset rules, and rule-set accuracy on held-out data.
func RunR1(w io.Writer, s Scale) error {
	header(w, "R1", "rule extraction: rules / pure rules / holdout accuracy (%)")
	rows := 800
	if s == Full {
		rows = 3000
	}
	fmt.Fprintf(w, "%-10s%10s%12s%12s%16s\n", "function", "rules", "pure rules", "tree size", "holdout acc")
	for _, fn := range []int{1, 3} {
		train, err := synth.Classify(synth.ClassifyConfig{NumRows: rows, Function: fn, Seed: int64(5000 + fn)})
		if err != nil {
			return err
		}
		test, err := synth.Classify(synth.ClassifyConfig{NumRows: rows / 2, Function: fn, Seed: int64(6000 + fn)})
		if err != nil {
			return err
		}
		tr, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio, MinLeaf: 5})
		if err != nil {
			return err
		}
		tr.PrunePessimistic(0.25)
		rls := tr.ExtractRules()
		pure := 0
		for _, r := range rls {
			if r.Pure() {
				pure++
			}
		}
		fmt.Fprintf(w, "F%-9d%10d%12d%12d%16.1f\n",
			fn, len(rls), pure, tr.Size(), 100*treeAccuracy(tr, test))
	}
	return nil
}
