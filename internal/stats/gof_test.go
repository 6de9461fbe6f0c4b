package stats

import (
	"math"
	"testing"
)

func TestRegularizedGammaP(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegularizedGammaP(1, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(√x).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := RegularizedGammaP(0.5, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(0.5, %v) = %v, want %v", x, got, want)
		}
	}
	if got := RegularizedGammaP(2, 0); got != 0 {
		t.Errorf("P(a, 0) = %v", got)
	}
	if !math.IsNaN(RegularizedGammaP(-1, 1)) {
		t.Error("P(-1, 1) should be NaN")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Critical value: P[χ²₁ ≥ 3.841] ≈ 0.05.
	if got := ChiSquareSurvival(3.841, 1); math.Abs(got-0.05) > 0.001 {
		t.Errorf("survival(3.841, 1) = %v", got)
	}
	// P[χ²₅ ≥ 11.070] ≈ 0.05.
	if got := ChiSquareSurvival(11.070, 5); math.Abs(got-0.05) > 0.001 {
		t.Errorf("survival(11.070, 5) = %v", got)
	}
	if got := ChiSquareSurvival(-1, 3); got != 1 {
		t.Errorf("survival of negative statistic = %v", got)
	}
}

func TestChiSquareTestGoodFit(t *testing.T) {
	// Sample from a Poisson, test against the fitted Poisson: should not
	// reject at the 1% level.
	g := NewRNG(23)
	const lambda = 6.0
	const n = 5000
	counts := make([]int, n)
	maxK := 0
	for i := range counts {
		counts[i] = g.Poisson(lambda)
		if counts[i] > maxK {
			maxK = counts[i]
		}
	}
	m, err := FitPoisson(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, maxK+1)
	exp := make([]float64, maxK+1)
	for _, c := range counts {
		obs[c]++
	}
	for k := 0; k <= maxK; k++ {
		exp[k] = m.PMF(k, 1) * n
	}
	res, err := ChiSquareTest(obs, exp, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.01 {
		t.Errorf("good Poisson fit rejected: p = %v (stat %v, df %d)", res.PValue, res.Statistic, res.DF)
	}
}

func TestChiSquareTestBadFit(t *testing.T) {
	// Uniform counts tested against a Poisson must be rejected.
	obs := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	m := PoissonModel{Lambda: 2}
	exp := make([]float64, len(obs))
	for k := range exp {
		exp[k] = m.PMF(k, 1) * 800
	}
	res, err := ChiSquareTest(obs, exp, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("bad fit not rejected: p = %v", res.PValue)
	}
}

func TestChiSquareTestErrors(t *testing.T) {
	if _, err := ChiSquareTest([]float64{1}, []float64{1, 2}, 0, 5); err == nil {
		t.Error("want length-mismatch error")
	}
	if _, err := ChiSquareTest(nil, nil, 0, 5); err == nil {
		t.Error("want empty-input error")
	}
	if _, err := ChiSquareTest([]float64{5}, []float64{5}, 0, 5); err == nil {
		t.Error("want insufficient-df error")
	}
}
