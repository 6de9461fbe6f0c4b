package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitPoisson(t *testing.T) {
	m, err := FitPoisson([]int{3, 5, 4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lambda != 4 {
		t.Errorf("Lambda = %v, want 4", m.Lambda)
	}
	if m.N != 4 {
		t.Errorf("N = %d, want 4", m.N)
	}

	// Interval length scales the rate.
	m2, err := FitPoisson([]int{8, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Lambda != 4 {
		t.Errorf("Lambda = %v, want 4", m2.Lambda)
	}
}

func TestFitPoissonErrors(t *testing.T) {
	if _, err := FitPoisson(nil, 1); err == nil {
		t.Error("want error on empty input")
	}
	if _, err := FitPoisson([]int{1}, 0); err == nil {
		t.Error("want error on zero interval")
	}
	if _, err := FitPoisson([]int{-1}, 1); err == nil {
		t.Error("want error on negative count")
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	m := PoissonModel{Lambda: 7.5}
	var sum float64
	for k := 0; k < 100; k++ {
		p := m.PMF(k, 1)
		if p < 0 {
			t.Fatalf("negative PMF at %d", k)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %v", sum)
	}
	if m.PMF(-1, 1) != 0 {
		t.Error("PMF(-1) != 0")
	}
	if got := m.CDF(99, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(99) = %v", got)
	}
}

func TestPoissonRecoversRate(t *testing.T) {
	g := NewRNG(11)
	const lambda = 12.0
	counts := make([]int, 5000)
	for i := range counts {
		counts[i] = g.Poisson(lambda)
	}
	m, err := FitPoisson(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Lambda-lambda) > 0.3 {
		t.Errorf("fitted lambda = %v, want ≈ %v", m.Lambda, lambda)
	}
}

func TestFitExponentialCensoredEq7(t *testing.T) {
	// Eq. 7: γ̂⁻¹ = total lifespan / #disappeared. Two exact (1, 3) and one
	// censored at 4: γ̂⁻¹ = 8/2 = 4.
	obs := []Duration{{Value: 1}, {Value: 3}, {Value: 4, Censored: true}}
	m, err := FitExponential(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Rate-0.25) > 1e-12 {
		t.Errorf("Rate = %v, want 0.25", m.Rate)
	}
	if m.Events != 2 || m.Censored != 1 {
		t.Errorf("Events/Censored = %d/%d", m.Events, m.Censored)
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Error("want error on empty input")
	}
	if _, err := FitExponential([]Duration{{Value: 1, Censored: true}}); err == nil {
		t.Error("want error when all observations censored")
	}
	if _, err := FitExponential([]Duration{{Value: -1}}); err == nil {
		t.Error("want error on negative duration")
	}
	if _, err := FitExponential([]Duration{{Value: 0}}); err == nil {
		t.Error("want error on zero total duration")
	}
}

func TestCensoredFitRecoversRate(t *testing.T) {
	// Generate exponential lifespans, censor everything above a horizon,
	// and verify the censored MLE still recovers the rate while the naive
	// exact-only fit is biased.
	g := NewRNG(13)
	const rate = 0.02
	const horizon = 60.0 // ≈ 70% of mass censored at mean 50
	var obs []Duration
	var naiveN, naiveSum float64
	for i := 0; i < 40000; i++ {
		v := g.Exponential(rate)
		if v > horizon {
			obs = append(obs, Duration{Value: horizon, Censored: true})
		} else {
			obs = append(obs, Duration{Value: v})
			naiveN++
			naiveSum += v
		}
	}
	m, err := FitExponential(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Rate-rate) > 0.1*rate {
		t.Errorf("censored MLE rate = %v, want ≈ %v", m.Rate, rate)
	}
	// The naive exact-only MLE, n/Σx over the uncensored values alone.
	if naive := naiveN / naiveSum; naive < 1.5*rate {
		t.Errorf("naive fit should be badly biased upward, got %v vs true %v", naive, rate)
	}
}

func TestExponentialCDFSurvival(t *testing.T) {
	m := ExponentialModel{Rate: 2}
	if m.CDF(0) != 0 || m.CDF(-1) != 0 {
		t.Error("CDF at non-positive x must be 0")
	}
	if m.Survival(0) != 1 {
		t.Error("Survival(0) must be 1")
	}
	f := func(x float64) bool {
		x = math.Abs(x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		s := m.CDF(x) + m.Survival(x)
		return math.Abs(s-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
