// Package core is the internal registry facade of the library — the "data
// mining techniques" toolbox the tutorial surveys, behind three small
// interfaces: classifier trainers, clusterers, and pattern miners. The
// experiment harness uses its registries to sweep every algorithm
// uniformly, and the classifier/clusterer CLIs program against it. For
// frequent-itemset mining the public, versioned entry point is the
// module-root mining package (context-aware Mine/MineStream and the
// stateful mining.Session, which finally absorbs the incremental
// maintainer) over assoc.Registered; there is no itemset-miner registry
// here.
package core

import (
	"errors"
	"fmt"

	"repro/internal/bayes"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/neural"
	"repro/internal/rules"
	"repro/internal/seqmine"
	"repro/internal/tree"
)

// ErrUnknownAlgorithm reports a name missing from a registry.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// ClassifierTrainer builds classifiers from tables under a common name.
type ClassifierTrainer interface {
	Name() string
	Train(t *dataset.Table) (eval.Classifier, error)
}

// --- classifier adapters ---

// TreeTrainer adapts tree.Build.
type TreeTrainer struct {
	Config tree.Config
	// Prune applies C4.5 pessimistic pruning after building.
	Prune bool
}

// Name implements ClassifierTrainer.
func (tr *TreeTrainer) Name() string {
	if tr.Prune {
		return "tree(pruned)"
	}
	return "tree"
}

// Train implements ClassifierTrainer.
func (tr *TreeTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	model, err := tree.Build(t, tr.Config)
	if err != nil {
		return nil, err
	}
	if tr.Prune {
		model.PrunePessimistic(0.25)
	}
	return model, nil
}

// BayesTrainer adapts bayes.Train.
type BayesTrainer struct{}

// Name implements ClassifierTrainer.
func (b *BayesTrainer) Name() string { return "naivebayes" }

// Train implements ClassifierTrainer.
func (b *BayesTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	return bayes.Train(t)
}

// KNNTrainer adapts knn.Train.
type KNNTrainer struct {
	K       int  // zero means 5
	UseTree bool // k-d tree backend
}

// Name implements ClassifierTrainer.
func (k *KNNTrainer) Name() string { return fmt.Sprintf("knn(k=%d)", k.k()) }

func (k *KNNTrainer) k() int {
	if k.K <= 0 {
		return 5
	}
	return k.K
}

// Train implements ClassifierTrainer.
func (k *KNNTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	kk := k.k()
	if kk > t.NumRows() {
		kk = t.NumRows()
	}
	return knn.Train(t, kk, k.UseTree)
}

// NeuralTrainer adapts neural.Train.
type NeuralTrainer struct {
	Config neural.Config
}

// Name implements ClassifierTrainer.
func (n *NeuralTrainer) Name() string { return "neuralnet" }

// Train implements ClassifierTrainer.
func (n *NeuralTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	return neural.Train(t, n.Config)
}

// OneRTrainer adapts rules.Train1R.
type OneRTrainer struct{}

// Name implements ClassifierTrainer.
func (o *OneRTrainer) Name() string { return "1R" }

// Train implements ClassifierTrainer.
func (o *OneRTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	return rules.Train1R(t)
}

// Classifiers returns the standard classifier suite of the survey, the
// lineup the EXP-T1 comparison sweeps.
func Classifiers() []ClassifierTrainer {
	return []ClassifierTrainer{
		&TreeTrainer{Config: tree.Config{Criterion: tree.GainRatio, MinLeaf: 2}, Prune: true},
		&BayesTrainer{},
		&KNNTrainer{K: 5, UseTree: true},
		&NeuralTrainer{Config: neural.Config{Hidden: []int{8}, Epochs: 30, LearningRate: 0.3, Momentum: 0.5}},
		&OneRTrainer{},
	}
}

// BaggingTrainer adapts ensemble.Bagging.
type BaggingTrainer struct {
	Rounds int
	Seed   int64
}

// Name implements ClassifierTrainer.
func (b *BaggingTrainer) Name() string { return "bagging" }

// Train implements ClassifierTrainer.
func (b *BaggingTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	bag := &ensemble.Bagging{
		Rounds: b.Rounds,
		Tree:   tree.Config{Criterion: tree.GainRatio, MinLeaf: 2},
		Seed:   b.Seed,
	}
	return bag.Train(t)
}

// AdaBoostTrainer adapts ensemble.AdaBoost.
type AdaBoostTrainer struct {
	Rounds   int
	MaxDepth int
	Seed     int64
}

// Name implements ClassifierTrainer.
func (a *AdaBoostTrainer) Name() string { return "adaboost" }

// Train implements ClassifierTrainer.
func (a *AdaBoostTrainer) Train(t *dataset.Table) (eval.Classifier, error) {
	boost := &ensemble.AdaBoost{Rounds: a.Rounds, MaxDepth: a.MaxDepth, Seed: a.Seed}
	return boost.Train(t)
}

// ExtendedClassifiers returns Classifiers() plus the committee methods —
// the survey era's "future work" that arrived while the tutorial was in
// press (bagging 1994, AdaBoost 1995).
func ExtendedClassifiers() []ClassifierTrainer {
	return append(Classifiers(),
		&BaggingTrainer{Rounds: 10},
		&AdaBoostTrainer{Rounds: 20, MaxDepth: 3},
	)
}

// ClassifierByName finds a trainer in ExtendedClassifiers() by name.
func ClassifierByName(name string) (ClassifierTrainer, error) {
	for _, c := range ExtendedClassifiers() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, name)
}

// Comparison is one classifier's cross-validated performance.
type Comparison struct {
	Name     string
	Accuracy float64
	MacroF1  float64
	FoldAcc  []float64
}

// CompareClassifiers cross-validates every trainer on the table.
func CompareClassifiers(t *dataset.Table, trainers []ClassifierTrainer, folds int, seed int64) ([]Comparison, error) {
	var out []Comparison
	for _, tr := range trainers {
		tr := tr
		res, err := eval.CrossValidate(t, folds, seed, func(train *dataset.Table) (eval.Classifier, error) {
			return tr.Train(train)
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", tr.Name(), err)
		}
		out = append(out, Comparison{
			Name:     tr.Name(),
			Accuracy: res.Accuracy(),
			MacroF1:  res.Matrix.MacroF1(),
			FoldAcc:  res.FoldAccuracy,
		})
	}
	return out, nil
}

// Clusterer is the common clustering interface.
type Clusterer interface {
	Name() string
	Cluster(points [][]float64) (*cluster.Result, error)
}

// --- clusterer adapters ---

// KMeansClusterer adapts cluster.KMeans.
type KMeansClusterer struct{ cluster.KMeans }

// Name implements Clusterer.
func (c *KMeansClusterer) Name() string { return "kmeans" }

// Cluster implements Clusterer.
func (c *KMeansClusterer) Cluster(points [][]float64) (*cluster.Result, error) {
	return c.Run(points)
}

// PAMClusterer adapts cluster.PAM.
type PAMClusterer struct{ cluster.PAM }

// Name implements Clusterer.
func (c *PAMClusterer) Name() string { return "pam" }

// Cluster implements Clusterer.
func (c *PAMClusterer) Cluster(points [][]float64) (*cluster.Result, error) {
	return c.Run(points)
}

// CLARAClusterer adapts cluster.CLARA.
type CLARAClusterer struct{ cluster.CLARA }

// Name implements Clusterer.
func (c *CLARAClusterer) Name() string { return "clara" }

// Cluster implements Clusterer.
func (c *CLARAClusterer) Cluster(points [][]float64) (*cluster.Result, error) {
	return c.Run(points)
}

// CLARANSClusterer adapts cluster.CLARANS.
type CLARANSClusterer struct{ cluster.CLARANS }

// Name implements Clusterer.
func (c *CLARANSClusterer) Name() string { return "clarans" }

// Cluster implements Clusterer.
func (c *CLARANSClusterer) Cluster(points [][]float64) (*cluster.Result, error) {
	return c.Run(points)
}

// DBSCANClusterer adapts cluster.DBSCAN.
type DBSCANClusterer struct{ cluster.DBSCAN }

// Name implements Clusterer.
func (c *DBSCANClusterer) Name() string { return "dbscan" }

// Cluster implements Clusterer.
func (c *DBSCANClusterer) Cluster(points [][]float64) (*cluster.Result, error) {
	return c.Run(points)
}

// BIRCHClusterer adapts cluster.BIRCH.
type BIRCHClusterer struct{ cluster.BIRCH }

// Name implements Clusterer.
func (c *BIRCHClusterer) Name() string { return "birch" }

// Cluster implements Clusterer.
func (c *BIRCHClusterer) Cluster(points [][]float64) (*cluster.Result, error) {
	return c.Run(points)
}

// PartitionClusterers returns the k-partitioning suite at a given k, the
// EXP-C1 lineup.
func PartitionClusterers(k int, seed int64) []Clusterer {
	return []Clusterer{
		&KMeansClusterer{cluster.KMeans{K: k, Seed: seed}},
		&PAMClusterer{cluster.PAM{K: k}},
		&CLARAClusterer{cluster.CLARA{K: k, Seed: seed}},
		&CLARANSClusterer{cluster.CLARANS{K: k, Seed: seed}},
	}
}

// SequenceMiners returns the sequential-pattern lineup of EXP-S1.
func SequenceMiners() []seqmine.Miner {
	return []seqmine.Miner{&seqmine.AprioriAll{}, &seqmine.GSP{}}
}
