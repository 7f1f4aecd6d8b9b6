package core

import (
	"errors"
	"testing"

	"repro/internal/synth"
)

func TestClassifiersLineup(t *testing.T) {
	cs := Classifiers()
	if len(cs) != 5 {
		t.Fatalf("classifiers = %d", len(cs))
	}
	names := map[string]bool{}
	for _, c := range cs {
		names[c.Name()] = true
	}
	for _, want := range []string{"tree(pruned)", "naivebayes", "knn(k=5)", "neuralnet", "1R"} {
		if !names[want] {
			t.Errorf("missing %q in %v", want, names)
		}
	}
}

func TestExtendedClassifiers(t *testing.T) {
	ext := ExtendedClassifiers()
	if len(ext) != 7 {
		t.Fatalf("extended classifiers = %d", len(ext))
	}
	names := map[string]bool{}
	for _, c := range ext {
		names[c.Name()] = true
	}
	if !names["bagging"] || !names["adaboost"] {
		t.Errorf("missing ensembles in %v", names)
	}
	for _, name := range []string{"bagging", "adaboost"} {
		tr, err := ClassifierByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 150, Function: 1, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		clf, err := tr.Train(tbl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := clf.Predict(tbl.Rows[0]); c < 0 || c > 1 {
			t.Errorf("%s: prediction %d", name, c)
		}
	}
}

func TestClassifierByName(t *testing.T) {
	c, err := ClassifierByName("naivebayes")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "naivebayes" {
		t.Errorf("Name = %s", c.Name())
	}
	if _, err := ClassifierByName("nope"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown error = %v", err)
	}
}

func TestCompareClassifiers(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 300, Function: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	comps, err := CompareClassifiers(tbl, Classifiers(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 5 {
		t.Fatalf("comparisons = %d", len(comps))
	}
	for _, c := range comps {
		if c.Accuracy < 0.4 || c.Accuracy > 1 {
			t.Errorf("%s accuracy = %v", c.Name, c.Accuracy)
		}
		if len(c.FoldAcc) != 3 {
			t.Errorf("%s folds = %d", c.Name, len(c.FoldAcc))
		}
	}
}

func TestAllTrainersProduceWorkingClassifiers(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 200, Function: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range Classifiers() {
		clf, err := tr.Train(tbl)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for i := 0; i < 10; i++ {
			c := clf.Predict(tbl.Rows[i])
			if c < 0 || c >= tbl.NumClasses() {
				t.Errorf("%s: prediction %d out of range", tr.Name(), c)
			}
		}
	}
}

func TestPartitionClusterers(t *testing.T) {
	p, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: 120, NumCluster: 3, Dims: 2, Spread: 0.5, Separation: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range PartitionClusterers(3, 7) {
		res, err := c.Cluster(p.X)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if res.NumClusters() < 1 || res.NumClusters() > 3 {
			t.Errorf("%s: clusters = %d", c.Name(), res.NumClusters())
		}
		if len(res.Assignments) != len(p.X) {
			t.Errorf("%s: assignments = %d", c.Name(), len(res.Assignments))
		}
	}
}

func TestDensityAndBirchAdapters(t *testing.T) {
	p, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: 200, NumCluster: 2, Dims: 2, Spread: 0.5, Separation: 40, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dbs Clusterer = &DBSCANClusterer{}
	dbs.(*DBSCANClusterer).Eps = 2
	dbs.(*DBSCANClusterer).MinPts = 4
	if _, err := dbs.Cluster(p.X); err != nil {
		t.Fatalf("dbscan: %v", err)
	}
	var birch Clusterer = &BIRCHClusterer{}
	birch.(*BIRCHClusterer).K = 2
	if _, err := birch.Cluster(p.X); err != nil {
		t.Fatalf("birch: %v", err)
	}
	if dbs.Name() != "dbscan" || birch.Name() != "birch" {
		t.Error("adapter names wrong")
	}
}

func TestSequenceMinersRegistry(t *testing.T) {
	ms := SequenceMiners()
	if len(ms) != 2 {
		t.Fatalf("sequence miners = %d", len(ms))
	}
	if ms[0].Name() != "AprioriAll" || ms[1].Name() != "GSP" {
		t.Errorf("names = %s, %s", ms[0].Name(), ms[1].Name())
	}
}
