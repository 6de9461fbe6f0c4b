package stats

import (
	"errors"
	"math"
)

// This file implements the goodness-of-fit machinery used to verify the
// paper's modeling assumptions (Figures 5 and 6): a chi-square test, with
// the special function its CDF needs (the regularized incomplete gamma).

// ChiSquareResult reports a chi-square goodness-of-fit test.
type ChiSquareResult struct {
	Statistic float64
	DF        int
	PValue    float64
}

// ChiSquareTest compares observed bin counts against expected bin counts.
// Bins with expected count below minExpected are pooled into their
// neighbour, following standard practice (use 5 when unsure). fittedParams
// is the number of parameters estimated from the data (reduces the degrees
// of freedom).
func ChiSquareTest(observed []float64, expected []float64, fittedParams int, minExpected float64) (ChiSquareResult, error) {
	if len(observed) != len(expected) {
		return ChiSquareResult{}, errors.New("stats: observed/expected length mismatch")
	}
	if len(observed) == 0 {
		return ChiSquareResult{}, errors.New("stats: empty chi-square input")
	}
	// Pool small-expectation bins left to right.
	var obs, exp []float64
	var accO, accE float64
	for i := range observed {
		accO += observed[i]
		accE += expected[i]
		if accE >= minExpected {
			obs = append(obs, accO)
			exp = append(exp, accE)
			accO, accE = 0, 0
		}
	}
	if accE > 0 || accO > 0 {
		if len(exp) == 0 {
			obs = append(obs, accO)
			exp = append(exp, accE)
		} else {
			obs[len(obs)-1] += accO
			exp[len(exp)-1] += accE
		}
	}
	df := len(obs) - 1 - fittedParams
	if df < 1 {
		return ChiSquareResult{}, errors.New("stats: not enough bins for chi-square test")
	}
	var stat float64
	for i := range obs {
		if exp[i] <= 0 {
			continue
		}
		d := obs[i] - exp[i]
		stat += d * d / exp[i]
	}
	return ChiSquareResult{Statistic: stat, DF: df, PValue: ChiSquareSurvival(stat, df)}, nil
}

// ChiSquareSurvival returns P[X ≥ x] for a chi-square variable with df
// degrees of freedom.
func ChiSquareSurvival(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return 1 - RegularizedGammaP(float64(df)/2, x/2)
}

// RegularizedGammaP computes the regularized lower incomplete gamma
// function P(a, x) using the series expansion for x < a+1 and the continued
// fraction for x ≥ a+1 (Numerical Recipes style, with Lentz's algorithm).
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - gammaQContinuedFraction(a, x)
	}
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
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
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
