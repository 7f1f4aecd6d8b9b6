package stats

import (
	"math"
	"testing"
)

func TestLowerRegularizedGammaKnown(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		got := lowerRegularizedGamma(1, x)
		want := 1 - math.Exp(-x)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
	}
	if got := lowerRegularizedGamma(2, 0); got != 0 {
		t.Errorf("P(2, 0) = %v", got)
	}
	if !math.IsNaN(lowerRegularizedGamma(-1, 1)) {
		t.Error("negative a should be NaN")
	}
}

func TestChiSquareSurvivalEdge(t *testing.T) {
	if got := ChiSquareSurvival(-1, 3); got != 1 {
		t.Errorf("negative chi2 = %v", got)
	}
	if got := ChiSquareSurvival(5, 0); got != 1 {
		t.Errorf("df=0 = %v", got)
	}
	// Large statistic: p approaches 0.
	if got := ChiSquareSurvival(1000, 1); got > 1e-10 {
		t.Errorf("huge chi2 p = %v", got)
	}
}
