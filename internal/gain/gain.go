// Package gain implements the gain and cost models of the paper's
// experimental section (Section 6.1): the quality-driven gain families
// LINEARGAIN, QUADGAIN and STEPGAIN over a chosen quality metric, the
// data-driven DATAGAIN, the additive shared-item cost model with the
// frequency discount c′ = c/(1+m/10), and the [0,1] rescaling of gain and
// cost. It also provides the Profit oracle — the objective
// G(SI, Tf) − C(SI, Tf) of Definitions 3–5 — consumed by the selection
// algorithms.
package gain

import (
	"errors"
	"fmt"
	"sync"

	"freshsource/internal/estimate"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// Metric selects which quality measure drives a quality-based gain.
type Metric int

const (
	// Coverage is Eq. 1 (submodular estimate → MaxSub applies).
	Coverage Metric = iota
	// LocalFreshness is Eq. 2 (not submodular → GRASP).
	LocalFreshness
	// GlobalFreshness is Eq. 3 (submodular estimate → MaxSub applies).
	GlobalFreshness
	// Accuracy is Eq. 4–5 (not submodular → GRASP).
	Accuracy
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Coverage:
		return "coverage"
	case LocalFreshness:
		return "local-freshness"
	case GlobalFreshness:
		return "global-freshness"
	case Accuracy:
		return "accuracy"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Submodular reports whether the estimated metric is a monotone submodular
// set function (Theorems 1 and 2 of the paper), which decides whether
// MaxSub's guarantees apply.
func (m Metric) Submodular() bool { return m == Coverage || m == GlobalFreshness }

// Of extracts the metric's value from a quality estimate.
func (m Metric) Of(q estimate.QualityEstimate) float64 {
	switch m {
	case Coverage:
		return q.Coverage
	case LocalFreshness:
		return q.LocalFreshness
	case GlobalFreshness:
		return q.GlobalFreshness
	case Accuracy:
		return q.Accuracy
	default:
		panic("gain: unknown metric")
	}
}

// Function maps the quality estimate at one time point to a gain value
// (before rescaling).
type Function interface {
	// Eval returns the gain at one time point.
	Eval(q estimate.QualityEstimate) float64
	// MaxGain returns an upper bound of Eval used for [0,1] rescaling.
	MaxGain() float64
	// Name identifies the function in reports.
	Name() string
	// Submodular reports whether gain composed with the estimators remains
	// monotone submodular (non-negative non-decreasing linear in a
	// submodular metric).
	Submodular() bool
}

// Linear is LINEARGAIN: G(Q) = 100·Q.
type Linear struct{ Metric Metric }

// Eval implements Function.
func (g Linear) Eval(q estimate.QualityEstimate) float64 { return 100 * g.Metric.Of(q) }

// MaxGain implements Function.
func (g Linear) MaxGain() float64 { return 100 }

// Name implements Function.
func (g Linear) Name() string { return "linear-" + g.Metric.String() }

// Submodular implements Function.
func (g Linear) Submodular() bool { return g.Metric.Submodular() }

// Quad is QUADGAIN: G(Q) = 100·Q².
type Quad struct{ Metric Metric }

// Eval implements Function.
func (g Quad) Eval(q estimate.QualityEstimate) float64 {
	v := g.Metric.Of(q)
	return 100 * v * v
}

// MaxGain implements Function.
func (g Quad) MaxGain() float64 { return 100 }

// Name implements Function.
func (g Quad) Name() string { return "quad-" + g.Metric.String() }

// Submodular implements Function.
func (g Quad) Submodular() bool { return false } // convex composition breaks submodularity

// Step is STEPGAIN: the paper's milestone staircase.
type Step struct{ Metric Metric }

// Eval implements Function.
func (g Step) Eval(q estimate.QualityEstimate) float64 {
	v := g.Metric.Of(q)
	switch {
	case v < 0.2:
		return 100 * v
	case v < 0.5:
		return 100 + 100*(v-0.2)
	case v < 0.7:
		return 150 + 100*(v-0.5)
	case v < 0.95:
		return 200 + 100*(v-0.7)
	default:
		return 300 + 100*(v-0.95)
	}
}

// MaxGain implements Function.
func (g Step) MaxGain() float64 { return 305 }

// Name implements Function.
func (g Step) Name() string { return "step-" + g.Metric.String() }

// Submodular implements Function.
func (g Step) Submodular() bool { return false } // jumps break submodularity

// Data is DATAGAIN: a fixed dollar gain per covered item,
// G(SI, t) = PerItem · Cov*(F(SI), t) · E[|Ω|t].
type Data struct {
	// PerItem is the gain per covered item; the paper uses $10.
	PerItem float64
	// OmegaMax is the largest expected world size over the time points of
	// interest, used for rescaling.
	OmegaMax float64
}

// Eval implements Function.
func (g Data) Eval(q estimate.QualityEstimate) float64 {
	return g.PerItem * q.ExpectedCovered
}

// MaxGain implements Function.
func (g Data) MaxGain() float64 { return g.PerItem * g.OmegaMax }

// Name implements Function.
func (g Data) Name() string { return "data" }

// Submodular implements Function.
func (g Data) Submodular() bool { return true } // linear in the covered-count estimate

// CostModel assigns acquisition costs to candidates following Section 6.1:
// each item has a base cost (the paper's $10) shared equally among the
// sources that mention it, a source costs the sum of its items' shares,
// and acquiring at frequency divisor m discounts to c/(1+m/10).
type CostModel struct {
	perCandidate []float64
	total        float64
}

// NewSharedItemCost derives the cost model from an estimator's candidates.
// Mention counts are computed over the distinct underlying sources
// (divisor-1 candidates).
func NewSharedItemCost(e *estimate.Estimator, perItem float64) (*CostModel, error) {
	if perItem <= 0 {
		return nil, errors.New("gain: perItem must be positive")
	}
	n := e.NumCandidates()
	if n == 0 {
		return nil, errors.New("gain: estimator has no candidates")
	}
	universe := e.Candidate(0).Profile.B.Len()

	// mentions[i] = number of distinct sources holding item i at t0.
	mentions := make([]int, universe)
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		c := e.Candidate(i)
		if seen[c.SourceIndex] {
			continue
		}
		seen[c.SourceIndex] = true
		c.Profile.B.ForEach(func(item int) { mentions[item]++ })
	}

	// Base cost per source, then the per-candidate frequency discount.
	baseCost := make(map[int]float64)
	for i := 0; i < n; i++ {
		c := e.Candidate(i)
		if _, done := baseCost[c.SourceIndex]; done {
			continue
		}
		var cost float64
		c.Profile.B.ForEach(func(item int) {
			cost += perItem / float64(mentions[item])
		})
		baseCost[c.SourceIndex] = cost
	}

	cm := &CostModel{perCandidate: make([]float64, n)}
	for i := 0; i < n; i++ {
		c := e.Candidate(i)
		m := float64(c.Profile.AcqDivisor)
		cm.perCandidate[i] = baseCost[c.SourceIndex] / (1 + m/10)
	}
	// The rescaling denominator: the cost of acquiring every source once at
	// full frequency. Accumulate in candidate order, not map order — the
	// sum must be bit-identical on every run.
	for done := range seen {
		delete(seen, done)
	}
	for i := 0; i < n; i++ {
		c := e.Candidate(i)
		if seen[c.SourceIndex] {
			continue
		}
		seen[c.SourceIndex] = true
		cm.total += baseCost[c.SourceIndex] / 1.1
	}
	if cm.total <= 0 {
		cm.total = 1
	}
	return cm, nil
}

// Cost returns the (unscaled) cost of candidate i.
func (cm *CostModel) Cost(i int) float64 { return cm.perCandidate[i] }

// SetCost returns the (unscaled) additive cost of a candidate set.
func (cm *CostModel) SetCost(set []int) float64 {
	var c float64
	for _, i := range set {
		c += cm.perCandidate[i]
	}
	return c
}

// Total returns the rescaling denominator (cost of everything).
func (cm *CostModel) Total() float64 { return cm.total }

// Profit is the selection objective G(SI, Tf) − C(SI, Tf) of
// Definitions 3–5, with gain and cost rescaled to [0,1] as in Section 6.1
// and the overall gain aggregated as the average over the time points of
// interest. It also enforces the budget βc.
type Profit struct {
	Est   *estimate.Estimator
	Ticks []timeline.Tick
	Gain  Function
	Cost  *CostModel
	// CostWeight scales the rescaled cost against the rescaled gain;
	// 1 reproduces the paper's profit, 0 ignores cost.
	CostWeight float64
	// Budget is βc over the rescaled cost; ≤ 0 means unconstrained.
	Budget float64

	// probeBuf pools the per-tick estimate buffers of ValueAdd (as slice
	// pointers, so Get/Put don't box a header), keeping the steady-state
	// probe allocation-free.
	probeBuf sync.Pool
}

// gainOf streams the per-tick gain evaluations straight into their
// average and applies the [0,1] rescaling — no intermediate gains slice,
// same additions in the same order as materialising one.
func (p *Profit) gainOf(qs []estimate.QualityEstimate) float64 {
	var g float64
	for _, q := range qs {
		g += p.Gain.Eval(q)
	}
	g /= float64(len(qs))
	if mg := p.Gain.MaxGain(); mg > 0 {
		g /= mg
	}
	return g
}

// NewProfit builds a profit oracle. ticks must be within the estimator's
// range.
func NewProfit(e *estimate.Estimator, ticks []timeline.Tick, g Function, c *CostModel) (*Profit, error) {
	if len(ticks) == 0 {
		return nil, errors.New("gain: no time points of interest")
	}
	for _, t := range ticks {
		if t < e.T0 || t > e.MaxT {
			return nil, fmt.Errorf("gain: tick %d outside estimator range [%d,%d]", t, e.T0, e.MaxT)
		}
	}
	return &Profit{Est: e, Ticks: ticks, Gain: g, Cost: c, CostWeight: 1}, nil
}

// Value implements the value oracle: average rescaled gain over Tf minus
// rescaled cost. Safe for concurrent use.
func (p *Profit) Value(set []int) float64 {
	obs.Counter("gain.profit.value_calls").Inc()
	qs := p.Est.QualityMulti(set, p.Ticks)
	var cost float64
	if p.Cost != nil {
		cost = p.Cost.SetCost(set)
	}
	return p.profitOf(qs, cost)
}

// profitOf turns per-tick quality estimates and an unscaled set cost into
// the rescaled profit.
func (p *Profit) profitOf(qs []estimate.QualityEstimate, cost float64) float64 {
	g := p.gainOf(qs)
	var c float64
	if p.Cost != nil {
		c = p.CostWeight * cost / p.Cost.Total()
	}
	return g - c
}

// ProfitState caches a set's estimation state and cost sum so that
// single-candidate additions — the probe of every greedy-style sweep — are
// evaluated incrementally. Build with BeginAdd, probe with ValueAdd. The
// set's estimation state and cost are fixed by BeginAdd; the one field
// filled later, the set's own value, is written once under a sync.Once,
// so the state is safe to share across concurrent probes.
type ProfitState struct {
	st *estimate.SetState
	// cost is the set's unscaled additive cost, accumulated in set order so
	// the incremental sum is bit-identical to SetCost(append(set, x)).
	cost float64
	// own is the value of the state's set itself, computed on the first
	// probe of an inert candidate (see ValueAdd).
	ownOnce sync.Once
	own     float64
}

// BeginAdd caches the evaluation state of set for subsequent ValueAdd
// probes. It performs no oracle evaluation and is not counted as one.
func (p *Profit) BeginAdd(set []int) any {
	var cost float64
	if p.Cost != nil {
		cost = p.Cost.SetCost(set)
	}
	return &ProfitState{st: p.Est.NewSetState(set), cost: cost}
}

// ValueAdd returns Value(set ∪ {x}) for the state's set, layering x's
// contribution on the cached signatures instead of re-unioning the set. It
// counts as one oracle call, like the Value evaluation it replaces, and
// returns a bit-identical result. x must not be in the state's set.
//
// An inert candidate (estimate.Estimator.Inert, at zero cost) leaves every
// estimate and the cost unchanged, so its probe returns the set's own
// value, computed once per state: the same bits the full probe would
// produce.
func (p *Profit) ValueAdd(state any, x int) float64 {
	st := state.(*ProfitState)
	obs.Counter("gain.profit.value_add_calls").Inc()
	if p.Est.Inert(x) && (p.Cost == nil || p.Cost.Cost(x) == 0) {
		st.ownOnce.Do(func() {
			st.own = p.profitOf(p.Est.QualityMultiState(st.st, p.Ticks), st.cost)
		})
		return st.own
	}
	bp, _ := p.probeBuf.Get().(*[]estimate.QualityEstimate)
	if bp == nil {
		bp = new([]estimate.QualityEstimate)
	}
	qs := p.Est.QualityMultiAddInto(st.st, x, p.Ticks, *bp)
	cost := st.cost
	if p.Cost != nil {
		cost += p.Cost.Cost(x)
	}
	v := p.profitOf(qs, cost)
	*bp = qs[:0]
	p.probeBuf.Put(bp)
	return v
}

// Report returns the quality a selection reports, from one estimation
// pass over the set: its average rescaled gain (no cost), and its average
// coverage and accuracy over Tf — the "Avg. Qual." columns of Tables 4–6.
func (p *Profit) Report(set []int) (gain, avgCoverage, avgAccuracy float64) {
	qs := p.Est.QualityMulti(set, p.Ticks)
	for _, q := range qs {
		avgCoverage += q.Coverage
		avgAccuracy += q.Accuracy
	}
	n := float64(len(qs))
	return p.gainOf(qs), avgCoverage / n, avgAccuracy / n
}

// Submodular reports whether the profit is submodular, which holds exactly
// when the gain is: the cost term is additive. Greedy and MaxSub's add
// moves probe lazily (CELF) when it returns true.
func (p *Profit) Submodular() bool { return p.Gain.Submodular() }

// Feasible reports whether the set respects the budget.
func (p *Profit) Feasible(set []int) bool {
	if p.Budget <= 0 || p.Cost == nil {
		return true
	}
	if p.Cost.SetCost(set)/p.Cost.Total() <= p.Budget {
		return true
	}
	obs.Counter("gain.profit.budget_rejections").Inc()
	return false
}
