package stats

import (
	"errors"
	"math"
)

// PoissonModel is a fitted Poisson distribution for per-interval counts
// (Eq. 6 of the paper): the number of events in an interval of length τ is
// Poisson with mean Lambda·τ.
type PoissonModel struct {
	// Lambda is the intensity (events per time unit), the MLE of which is
	// the observed average rate.
	Lambda float64
	// N is the number of intervals the model was fitted on.
	N int
}

// FitPoisson estimates the intensity of a Poisson process from per-interval
// event counts, where each interval has the given fixed length. The MLE is
// the sample mean divided by the interval length.
func FitPoisson(counts []int, intervalLen float64) (PoissonModel, error) {
	if len(counts) == 0 {
		return PoissonModel{}, errors.New("stats: FitPoisson with no observations")
	}
	if intervalLen <= 0 {
		return PoissonModel{}, errors.New("stats: FitPoisson requires positive interval length")
	}
	var sum float64
	for _, c := range counts {
		if c < 0 {
			return PoissonModel{}, errors.New("stats: negative count")
		}
		sum += float64(c)
	}
	return PoissonModel{Lambda: sum / (float64(len(counts)) * intervalLen), N: len(counts)}, nil
}

// PMF returns the Poisson probability of observing k events in an interval
// of length tau.
func (m PoissonModel) PMF(k int, tau float64) float64 {
	if k < 0 {
		return 0
	}
	mean := m.Lambda * tau
	if mean == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(mean) - mean - lg)
}

// CDF returns the Poisson probability of observing at most k events in an
// interval of length tau.
func (m PoissonModel) CDF(k int, tau float64) float64 {
	p := 0.0
	for i := 0; i <= k; i++ {
		p += m.PMF(i, tau)
	}
	if p > 1 {
		return 1
	}
	return p
}

// ExponentialModel is a fitted exponential distribution for durations
// (lifespans and update intervals, Section 4.1.1).
type ExponentialModel struct {
	// Rate is the exponential rate parameter γ; the mean duration is 1/γ.
	Rate float64
	// Events is the number of uncensored (exact) observations used.
	Events int
	// Censored is the number of right-censored observations used.
	Censored int
}

// Duration is a possibly right-censored duration observation. If Censored
// is true, Value is a lower bound on the true duration (the entity had not
// disappeared / the event had not been captured by the end of the observed
// window).
type Duration struct {
	Value    float64
	Censored bool
}

// FitExponential computes the maximum-likelihood exponential rate from a
// mix of exact and right-censored durations. This is Eq. 7 of the paper:
//
//	γ̂⁻¹ = (total observed duration) / (number of uncensored events).
//
// It returns an error when there is no uncensored event (the MLE does not
// exist) or when total observed duration is zero.
func FitExponential(obs []Duration) (ExponentialModel, error) {
	if len(obs) == 0 {
		return ExponentialModel{}, errors.New("stats: FitExponential with no observations")
	}
	var total float64
	events, censored := 0, 0
	for _, d := range obs {
		if d.Value < 0 {
			return ExponentialModel{}, errors.New("stats: negative duration")
		}
		total += d.Value
		if d.Censored {
			censored++
		} else {
			events++
		}
	}
	if events == 0 {
		return ExponentialModel{}, errors.New("stats: FitExponential requires at least one uncensored event")
	}
	if total == 0 {
		return ExponentialModel{}, errors.New("stats: FitExponential with zero total duration")
	}
	return ExponentialModel{Rate: float64(events) / total, Events: events, Censored: censored}, nil
}

// CDF returns P[duration ≤ x].
func (m ExponentialModel) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-m.Rate*x)
}

// Survival returns P[duration > x] = e^{-γx}.
func (m ExponentialModel) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-m.Rate * x)
}

// Mean returns the mean duration 1/γ.
func (m ExponentialModel) Mean() float64 { return 1 / m.Rate }
