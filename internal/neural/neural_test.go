package neural

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func xorTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.New(
		dataset.NewNumericAttribute("a"),
		dataset.NewNumericAttribute("b"),
		dataset.NewCategoricalAttribute("class", "zero", "one"),
	)
	tbl.ClassIndex = 2
	// Replicated XOR so the stochastic updates see enough examples.
	for rep := 0; rep < 25; rep++ {
		for _, r := range [][]float64{
			{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0},
		} {
			if err := tbl.AppendRow(append([]float64(nil), r...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

func TestLearnsXOR(t *testing.T) {
	tbl := xorTable(t)
	n, err := Train(tbl, Config{Hidden: []int{8}, LearningRate: 0.5, Epochs: 400, Momentum: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[[2]float64]int{
		{0, 0}: 0, {0, 1}: 1, {1, 0}: 1, {1, 1}: 0,
	}
	for in, want := range cases {
		if got := n.Predict([]float64{in[0], in[1], 0}); got != want {
			t.Errorf("XOR(%v) = %d, want %d", in, got, want)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Config{}); !errors.Is(err, ErrNoRows) {
		t.Errorf("nil error = %v", err)
	}
	noClass := dataset.New(dataset.NewNumericAttribute("x"))
	if err := noClass.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(noClass, Config{}); !errors.Is(err, ErrNoClass) {
		t.Errorf("no-class error = %v", err)
	}
	tbl := xorTable(t)
	if _, err := Train(tbl, Config{LearningRate: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad lr error = %v", err)
	}
	if _, err := Train(tbl, Config{Momentum: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad momentum error = %v", err)
	}
	if _, err := Train(tbl, Config{Hidden: []int{0}}); !errors.Is(err, ErrConfig) {
		t.Errorf("zero hidden error = %v", err)
	}
}

func TestDeterministicTraining(t *testing.T) {
	tbl := xorTable(t)
	cfg := Config{Hidden: []int{4}, Epochs: 20, Seed: 7}
	a, err := Train(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.weights, b.weights) || !reflect.DeepEqual(a.biases, b.biases) {
		t.Fatal("same seed trained different weights")
	}
}

func TestBeatsMajorityOnLinearFunction(t *testing.T) {
	// F7 is a linear threshold of salary/commission/loan: MLP territory.
	train, err := synth.Classify(synth.ClassifyConfig{NumRows: 1500, Function: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 600, Function: 7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Train(train, Config{Hidden: []int{8}, Epochs: 60, LearningRate: 0.3, Momentum: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	counts := make([]int, 2)
	for i, row := range test.Rows {
		if n.Predict(row) == test.Class(i) {
			correct++
		}
		counts[test.Class(i)]++
	}
	acc := float64(correct) / float64(test.NumRows())
	base := float64(maxInt(counts[0], counts[1])) / float64(test.NumRows())
	if acc <= base+0.05 {
		t.Errorf("accuracy %v not better than baseline %v", acc, base)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestMissingInputsHandled(t *testing.T) {
	tbl := xorTable(t)
	n, err := Train(tbl, Config{Epochs: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got := n.Predict([]float64{dataset.Missing, dataset.Missing, 0})
	if got != 0 && got != 1 {
		t.Errorf("prediction = %d", got)
	}
}
