package stats

import (
	"errors"
	"math"
)

// ChiSquare performs Pearson's chi-square test of independence on a
// contingency table (rows = categories of one variable, columns = categories
// of the other). It returns the chi-square statistic, degrees of freedom,
// and the p-value.
//
// Rows and columns whose marginal total is zero contribute no degrees of
// freedom and are ignored, matching the usual statistical-package behaviour.
func ChiSquare(table [][]float64) (chi2 float64, df int, p float64, err error) {
	if len(table) == 0 || len(table[0]) == 0 {
		return 0, 0, 0, errors.New("stats: empty contingency table")
	}
	nCols := len(table[0])
	for _, row := range table {
		if len(row) != nCols {
			return 0, 0, 0, errors.New("stats: ragged contingency table")
		}
	}
	rowSum := make([]float64, len(table))
	colSum := make([]float64, nCols)
	total := 0.0
	for i, row := range table {
		for j, v := range row {
			if v < 0 {
				return 0, 0, 0, errors.New("stats: negative cell count")
			}
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0, 0, 0, errors.New("stats: all-zero contingency table")
	}
	activeRows, activeCols := 0, 0
	for _, s := range rowSum {
		if s > 0 {
			activeRows++
		}
	}
	for _, s := range colSum {
		if s > 0 {
			activeCols++
		}
	}
	df = (activeRows - 1) * (activeCols - 1)
	if df <= 0 {
		return 0, 0, 1, nil
	}
	for i, row := range table {
		if rowSum[i] == 0 {
			continue
		}
		for j, v := range row {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / total
			d := v - expected
			chi2 += d * d / expected
		}
	}
	return chi2, df, ChiSquareSurvival(chi2, df), nil
}

// ChiSquareSurvival returns P(X >= chi2) for a chi-square distribution with
// df degrees of freedom, i.e. the p-value of the test statistic.
func ChiSquareSurvival(chi2 float64, df int) float64 {
	if chi2 <= 0 || df <= 0 {
		return 1
	}
	return 1 - lowerRegularizedGamma(float64(df)/2, chi2/2)
}

// lowerRegularizedGamma computes P(a, x), the lower regularized incomplete
// gamma function, via the series expansion for x < a+1 and the continued
// fraction otherwise (Numerical Recipes §6.2).
func lowerRegularizedGamma(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContinuedFraction(a, x)
	}
}

func gammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
