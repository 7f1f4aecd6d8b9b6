package ensemble

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/tree"
)

func noisyTables(t *testing.T, fn int) (train, test *dataset.Table) {
	t.Helper()
	var err error
	train, err = synth.Classify(synth.ClassifyConfig{NumRows: 1200, Function: fn, Noise: 0.15, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	test, err = synth.Classify(synth.ClassifyConfig{NumRows: 800, Function: fn, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func accuracyOf(clf interface{ Predict([]float64) int }, tbl *dataset.Table) float64 {
	correct := 0
	for i, row := range tbl.Rows {
		if clf.Predict(row) == tbl.Class(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRows())
}

func TestBaggingBeatsSingleTreeOnNoise(t *testing.T) {
	train, test := noisyTables(t, 5)
	single, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio})
	if err != nil {
		t.Fatal(err)
	}
	bag, err := (&Bagging{Rounds: 15, Tree: tree.Config{Criterion: tree.GainRatio}, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(bag.trees) != 15 {
		t.Errorf("committee size = %d", len(bag.trees))
	}
	singleAcc, bagAcc := accuracyOf(single, test), accuracyOf(bag, test)
	if bagAcc < singleAcc-0.01 {
		t.Errorf("bagging %.3f worse than single tree %.3f", bagAcc, singleAcc)
	}
}

func TestAdaBoostBeatsStump(t *testing.T) {
	// F7's class boundary is a diagonal hyperplane: individual
	// axis-parallel stumps approximate it poorly, and boosting's weighted
	// committee builds the diagonal out of them — the classic
	// Freund-Schapire demonstration. (On heavily label-noisy data
	// AdaBoost famously does NOT help; see the bagging test for that
	// regime.)
	train, err := synth.Classify(synth.ClassifyConfig{NumRows: 1200, Function: 7, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 800, Function: 7, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	stump, err := tree.Build(train, tree.Config{Criterion: tree.GainRatio, MaxDepth: 2, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	boost, err := (&AdaBoost{Rounds: 30, MaxDepth: 2, Seed: 2}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(boost.trees) < 2 {
		t.Fatalf("committee size = %d", len(boost.trees))
	}
	stumpAcc, boostAcc := accuracyOf(stump, test), accuracyOf(boost, test)
	if boostAcc <= stumpAcc+0.03 {
		t.Errorf("boosting %.3f not clearly better than its weak learner %.3f", boostAcc, stumpAcc)
	}
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := (&Bagging{}).Train(nil); !errors.Is(err, ErrNoRows) {
		t.Errorf("bagging nil error = %v", err)
	}
	if _, err := (&AdaBoost{}).Train(nil); !errors.Is(err, ErrNoRows) {
		t.Errorf("boosting nil error = %v", err)
	}
	noClass := dataset.New(dataset.NewNumericAttribute("x"))
	if err := noClass.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Bagging{}).Train(noClass); !errors.Is(err, ErrNoClass) {
		t.Errorf("bagging no-class error = %v", err)
	}
	if _, err := (&AdaBoost{}).Train(noClass); !errors.Is(err, ErrNoClass) {
		t.Errorf("boosting no-class error = %v", err)
	}
}

func TestEnsemblesDeterministic(t *testing.T) {
	train, test := noisyTables(t, 3)
	a, err := (&Bagging{Rounds: 5, Seed: 9}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Bagging{Rounds: 5, Seed: 9}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range test.Rows[:100] {
		if a.Predict(row) != b.Predict(row) {
			t.Fatal("same-seed bagging differs")
		}
	}
	c, err := (&AdaBoost{Rounds: 5, Seed: 9}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := (&AdaBoost{Rounds: 5, Seed: 9}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range test.Rows[:100] {
		if c.Predict(row) != d.Predict(row) {
			t.Fatal("same-seed boosting differs")
		}
	}
}

func TestAdaBoostPerfectLearnerStops(t *testing.T) {
	// Separable data: the first unlimited-depth... depth-3 tree on F1
	// (age-only) is already perfect, so boosting should stop early.
	train, err := synth.Classify(synth.ClassifyConfig{NumRows: 500, Function: 1, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	boost, err := (&AdaBoost{Rounds: 30, MaxDepth: 5, Seed: 3}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(boost.trees) > 5 {
		t.Errorf("perfect learner should stop boosting early; size = %d", len(boost.trees))
	}
	if acc := accuracyOf(boost, train); acc < 0.99 {
		t.Errorf("training accuracy = %v", acc)
	}
}
