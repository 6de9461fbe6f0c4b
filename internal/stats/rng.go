// Package stats supplies the numeric and statistical substrate the paper
// depends on and that the Go standard library lacks: random-variate
// generation for the world simulator (Poisson processes, exponential
// lifespans, heavy-tailed source sizes), maximum-likelihood fitting with
// right-censored observations (Eq. 7 of the paper), the Kaplan–Meier
// product-limit estimator used for source effectiveness distributions
// (Section 4.1.2), histograms, and the chi-square goodness-of-fit test used
// to verify the modeling assumptions (Figures 5 and 6).
//
// Everything is deterministic given a seed, so every experiment in the
// repository is reproducible bit-for-bit.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random-variate generator. It wraps math/rand with
// the distribution samplers the simulators need.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork returns a new independent generator derived from this one. Forking
// lets each subdomain or source own a private stream so that changing the
// number of draws in one component does not perturb the others.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Exponential returns a variate from the exponential distribution with the
// given rate (mean 1/rate). This is the lifespan and update-interval model
// of Section 4.1.1.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return g.r.ExpFloat64() / rate
}

// maxChunk bounds the intensity handled by a single run of Knuth's Poisson
// sampler; exp(-30) is comfortably above the smallest normal float64.
const maxChunk = 30.0

// Poisson returns a variate from the Poisson distribution with the given
// mean. For large means the additivity of the Poisson distribution is used:
// the mean is split into chunks small enough for Knuth's product method to
// avoid underflow, which keeps the sampler exact for every mean.
func (g *RNG) Poisson(mean float64) int {
	if mean < 0 {
		panic("stats: Poisson requires mean >= 0")
	}
	total := 0
	for mean > maxChunk {
		total += g.poissonKnuth(maxChunk)
		mean -= maxChunk
	}
	return total + g.poissonKnuth(mean)
}

func (g *RNG) poissonKnuth(mean float64) int {
	if mean == 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// UniformInt returns a uniform integer in [lo, hi] inclusive.
func (g *RNG) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("stats: UniformInt requires hi >= lo")
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Zipf returns a variate in {0, …, n-1} following a Zipf law with exponent
// s > 0 (rank 0 is the most probable). It is used to generate the
// heavy-tailed source-size distributions observed in GDELT.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("stats: Zipf requires n > 0")
	}
	// Inverse-CDF over the normalized rank weights. n is small (hundreds)
	// in all our uses, so the linear scan is fine and exact.
	var total float64
	for i := 1; i <= n; i++ {
		total += math.Pow(float64(i), -s)
	}
	u := g.r.Float64() * total
	var cum float64
	for i := 1; i <= n; i++ {
		cum += math.Pow(float64(i), -s)
		if u <= cum {
			return i - 1
		}
	}
	return n - 1
}

// LogNormal returns a variate whose logarithm is normal with the given
// parameters. Used for source report-delay models with occasional long
// tails.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Normal returns a normal variate.
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). It panics if k > n.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("stats: sample size exceeds population")
	}
	p := g.r.Perm(n)
	return p[:k]
}
