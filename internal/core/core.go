// Package core is the public façade of the library: it wires the paper's
// pipeline together — statistical training on a historical window, future
// quality estimation, and profit-driven source selection — behind a small
// API (Figure 3 of the paper).
//
// Usage:
//
//	trained, _ := core.Train(w, sources, t0, core.TrainOptions{MaxT: horizon - 1})
//	problem, _ := core.NewProblem(trained, futureTicks, gain.Linear{Metric: gain.Coverage}, core.ProblemOptions{})
//	sel, _ := problem.Solve(core.MaxSub, core.SolveOptions{})
//
// The three problem variants of the paper map as follows: basic time-aware
// selection (Definition 3) is a Problem over divisor-1 candidates;
// varying-frequency selection (Definition 4) is a Problem whose TrainOptions
// requested FreqDivisors, which adds the augmented candidates S^m under a
// one-version-per-source partition matroid; slice selection (Definition 5)
// is a Problem whose sources are micro-sources (see
// dataset.AddMicroSources and source.Restrict).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"freshsource/internal/estimate"
	"freshsource/internal/gain"
	"freshsource/internal/matroid"
	"freshsource/internal/selection"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// TrainOptions configures Train.
type TrainOptions struct {
	// Points restricts the query domain (nil = the whole world).
	Points []world.DomainPoint
	// MaxT is the largest future tick that will be queried; it defaults to
	// the world horizon − 1.
	MaxT timeline.Tick
	// FreqDivisors, when non-empty, adds an S^m candidate per source and
	// divisor m (Definition 4); selection then enforces at most one
	// version per source.
	FreqDivisors []int
	// FitWorkers bounds the model-fitting pool: 0 uses GOMAXPROCS, 1 fits
	// sequentially, n > 1 fans the per-subdomain and per-source fits across
	// n goroutines. The fitted models are byte-identical at any setting.
	FitWorkers int
}

// Trained is the output of the preprocessing stage of Figure 3: fitted
// world models, source profiles and the cost model.
type Trained struct {
	// Est estimates integration quality for candidate sets at future ticks.
	Est *estimate.Estimator
	// Cost is the shared-item cost model over the candidates.
	Cost *gain.CostModel
	// Constrained reports whether frequency variants were added (selection
	// must respect the one-version-per-source matroid).
	Constrained bool

	t0 timeline.Tick
}

// ErrCanceled reports a Solve stopped by its context before completion; it
// aliases the selection package's sentinel so errors.Is works against
// either. The run's partial state is discarded — callers get the error, not
// a half-finished selection.
var ErrCanceled = selection.ErrCanceled

// Train fits the statistical models and profiles on the window [0, t0].
func Train(w *world.World, srcs []*source.Source, t0 timeline.Tick, opt TrainOptions) (*Trained, error) {
	return TrainContext(context.Background(), w, srcs, t0, opt)
}

// TrainContext is Train with cancellation: a fired context aborts the model
// and profile fits and surfaces ctx.Err().
func TrainContext(ctx context.Context, w *world.World, srcs []*source.Source, t0 timeline.Tick, opt TrainOptions) (*Trained, error) {
	maxT := opt.MaxT
	if maxT == 0 {
		maxT = w.Horizon() - 1
	}
	est, err := estimate.NewFit(ctx, w, srcs, t0, maxT, opt.Points, estimate.FitOptions{Workers: opt.FitWorkers})
	if err != nil {
		return nil, err
	}
	return FromEstimator(est, t0, opt)
}

// FromEstimator finishes training from an already-fitted base estimator
// (divisor-1 candidates only): it derives the frequency-variant candidates
// and the cost model that Train would have built, without re-running any
// statistical fit. The persistent model cache uses it to turn a loaded
// estimator into a Trained, and the serving registry to derive every
// divisor list from one fit per generation.
func FromEstimator(est *estimate.Estimator, t0 timeline.Tick, opt TrainOptions) (*Trained, error) {
	constrained := len(opt.FreqDivisors) > 0
	if constrained {
		var err error
		if est, err = est.WithFrequencyVariants(opt.FreqDivisors); err != nil {
			return nil, err
		}
	}
	// The paper's $10 per item. The item cost scales every candidate's
	// cost and the total alike, so no consumer's ratio depends on it.
	cost, err := gain.NewSharedItemCost(est, 10)
	if err != nil {
		return nil, err
	}
	return &Trained{Est: est, Cost: cost, Constrained: constrained, t0: t0}, nil
}

// T0 returns the end of the training window.
func (tr *Trained) T0() timeline.Tick { return tr.t0 }

// NumCandidates returns the size of the selection ground set.
func (tr *Trained) NumCandidates() int { return tr.Est.NumCandidates() }

// CandidateName returns the display name of candidate i (frequency
// variants carry a "/m" suffix).
func (tr *Trained) CandidateName(i int) string { return tr.Est.Candidate(i).Name() }

// CandidateDivisor returns the acquisition divisor of candidate i.
func (tr *Trained) CandidateDivisor(i int) int { return tr.Est.Candidate(i).Divisor() }

// CandidateSource returns the underlying source index of candidate i.
func (tr *Trained) CandidateSource(i int) int { return tr.Est.Candidate(i).SourceIndex }

// ProblemOptions configures NewProblem.
type ProblemOptions struct {
	// Budget is βc over the rescaled cost in [0,1]; ≤ 0 means
	// unconstrained (the setting of the paper's experiments).
	Budget float64
	// CostWeight scales the cost term of the profit; it defaults to 1.
	CostWeight float64
}

// Problem is one instance of time-aware source selection (Definitions
// 3–5): a trained model, the future time points of interest Tf, a gain
// function and a budget.
type Problem struct {
	Trained *Trained
	Ticks   []timeline.Tick
	Gain    gain.Function

	profit *gain.Profit
	ms     []matroid.Matroid
}

// NewProblem assembles a selection problem. ticks are the future time
// points of interest Tf; the overall gain aggregates by average, matching
// the submodularity conditions of Section 5.
func NewProblem(tr *Trained, ticks []timeline.Tick, g gain.Function, opt ProblemOptions) (*Problem, error) {
	if tr == nil {
		return nil, errors.New("core: nil Trained")
	}
	p, err := gain.NewProfit(tr.Est, ticks, g, tr.Cost)
	if err != nil {
		return nil, err
	}
	if opt.Budget > 0 {
		p.Budget = opt.Budget
	}
	if opt.CostWeight != 0 {
		p.CostWeight = opt.CostWeight
	}
	prob := &Problem{Trained: tr, Ticks: ticks, Gain: g, profit: p}
	if tr.Constrained {
		classOf := make([]int, tr.NumCandidates())
		for i := range classOf {
			classOf[i] = tr.CandidateSource(i)
		}
		pm, err := matroid.OnePerClass(classOf)
		if err != nil {
			return nil, err
		}
		prob.ms = []matroid.Matroid{pm}
	}
	return prob, nil
}

// Profit exposes the underlying value oracle (for diagnostics and custom
// algorithms).
func (p *Problem) Profit() *gain.Profit { return p.profit }

// Algorithm names one of the implemented selection algorithms.
type Algorithm string

// The implemented algorithms (Section 6.1 plus two extensions).
const (
	// Greedy is the greedy baseline of Dong et al.: each round adds the
	// candidate with the best marginal profit. On the gains the paper
	// proves submodular (linear coverage or global freshness, and the data
	// gain) it runs CELF: after the first round it re-probes only the stale
	// marginal gains that could still beat the round's pick, with a
	// rounding slack that keeps the answer bit-identical to a full scan
	// (DESIGN.md §5d), so only OracleCalls shrinks. Other gains scan every
	// candidate each round.
	Greedy Algorithm = "greedy"
	// MaxSub is the submodular local search of Section 5 — Algorithm 1 for
	// unconstrained problems, Algorithms 2–3 under matroid constraints.
	// Algorithm 1's add moves are Greedy's picks and share its CELF engine
	// until a delete move. So do Algorithm 3's exchanges that drop
	// nothing, until a delete or a swap; only the candidates a matroid
	// blocks are probed as swaps. Answers equal the full scan's, bit for
	// bit; only OracleCalls shrinks.
	MaxSub Algorithm = "maxsub"
	// GRASP is the randomized multi-start baseline of Dong et al.
	GRASP Algorithm = "grasp"
	// LazyGreedy names CELF, the lazy greedy, which Greedy already runs
	// wherever it is exact. It stays an accepted name and runs Greedy:
	// same Selection, OracleCalls included.
	LazyGreedy Algorithm = "lazygreedy"
	// Budgeted is the cost-benefit greedy for tight βc budgets (ratio
	// greedy + best-singleton fallback).
	Budgeted Algorithm = "budgeted"
)

// SolveOptions tunes an algorithm run.
type SolveOptions struct {
	// Epsilon is the local-search slack ε; it defaults to 0.1.
	Epsilon float64
	// Kappa and Rounds are GRASP's (κ, r); they default to (5, 20).
	Kappa, Rounds int
	// Seed seeds GRASP's randomization.
	Seed int64
	// Workers fans each round's candidate sweep across this many
	// goroutines: 0 keeps the sequential path, negative uses all cores.
	// Every algorithm's Selection is deterministic and identical at any
	// worker count, OracleCalls included.
	Workers int
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.1
	}
	if o.Kappa <= 0 {
		o.Kappa = 5
	}
	if o.Rounds <= 0 {
		o.Rounds = 20
	}
	return o
}

// Selection is a solved problem: the chosen candidates and their reported
// quality.
type Selection struct {
	Algorithm Algorithm
	// Set holds the selected candidate indices.
	Set []int
	// Names and Divisors describe the selected candidates.
	Names    []string
	Divisors []int
	// Profit is the objective value G − C (rescaled units).
	Profit float64
	// Gain is the rescaled gain alone.
	Gain float64
	// AvgCoverage and AvgAccuracy are the average estimated quality over
	// Tf (the "Avg. Qual." columns of Tables 4–6).
	AvgCoverage float64
	AvgAccuracy float64
	// OracleCalls and Duration report the run's work.
	OracleCalls int
	Duration    time.Duration
}

// matroidOracle layers matroid feasibility on top of the profit oracle for
// the algorithms that only understand Feasible (Greedy, GRASP, budgeted).
type matroidOracle struct {
	*gain.Profit
	ms []matroid.Matroid
}

func (o matroidOracle) Feasible(set []int) bool {
	return o.Profit.Feasible(set) && matroid.AllIndependent(o.ms, set)
}

// oracle returns the problem's selection oracle: its profit, with the
// divisors' matroid constraints folded into Feasible when it has any.
func (p *Problem) oracle() selection.IncrementalOracle {
	if len(p.ms) > 0 {
		return matroidOracle{Profit: p.profit, ms: p.ms}
	}
	return p.profit
}

// Solve runs the chosen algorithm on the problem.
func (p *Problem) Solve(alg Algorithm, opt SolveOptions) (*Selection, error) {
	return p.SolveContext(context.Background(), alg, opt)
}

// SolveContext runs the chosen algorithm under a context: when ctx fires
// mid-run the algorithm abandons the sweep in flight (discarding its
// partial argmax) and SolveContext returns ErrCanceled. This is the serving
// path's per-request timeout hook.
func (p *Problem) SolveContext(ctx context.Context, alg Algorithm, opt SolveOptions) (*Selection, error) {
	opt = opt.withDefaults()
	n := p.Trained.NumCandidates()

	oracle := p.oracle()
	var sopts []selection.Option
	if opt.Workers != 0 {
		sopts = append(sopts, selection.Parallel(opt.Workers))
	}
	if ctx != nil && ctx != context.Background() {
		sopts = append(sopts, selection.Context(ctx))
	}

	var res selection.Result
	switch alg {
	case Greedy, LazyGreedy:
		res = selection.Greedy(oracle, n, sopts...)
	case MaxSub:
		if len(p.ms) > 0 {
			// The matroid search enforces its matroids on every move, so it
			// takes the bare profit: matroidOracle's Feasible would check
			// each set's independence again.
			res = selection.MatroidMax(p.profit, n, p.ms, opt.Epsilon, sopts...)
		} else {
			res = selection.MaxSub(oracle, n, opt.Epsilon, sopts...)
		}
	case GRASP:
		res = selection.GRASP(oracle, n, opt.Kappa, opt.Rounds, stats.NewRNG(opt.Seed), sopts...)
	case Budgeted:
		res = selection.BudgetedGreedy(oracle, n, func(i int) float64 {
			return p.Trained.Cost.Cost(i) / p.Trained.Cost.Total()
		}, sopts...)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	if res.Err != nil {
		return nil, fmt.Errorf("core: %s: %w", alg, res.Err)
	}

	sel := &Selection{
		Algorithm:   alg,
		Set:         res.Set,
		Profit:      res.Value,
		OracleCalls: res.OracleCalls,
		Duration:    res.Duration,
	}
	sel.Gain, sel.AvgCoverage, sel.AvgAccuracy = p.profit.Report(res.Set)
	for _, i := range res.Set {
		sel.Names = append(sel.Names, p.Trained.CandidateName(i))
		sel.Divisors = append(sel.Divisors, p.Trained.CandidateDivisor(i))
	}
	return sel, nil
}
