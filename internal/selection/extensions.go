package selection

import (
	"math"

	"freshsource/internal/bitset"
)

// This file extends the paper's algorithm suite with the cost-benefit
// greedy for a knapsack budget βc (Definition 3's constraint, which the
// paper's experiments leave unconstrained): grow by the best
// marginal-profit-per-unit-cost candidate that fits, and return the better
// of that solution and the best feasible singleton — the classic
// (1−1/√e)-style guarantee construction. (CELF, the other standard
// extension, is not a separate algorithm: Greedy runs it on submodular
// oracles; see addEngine.)

// BudgetedGreedy maximizes under the oracle's feasibility (budget)
// constraint using cost-per-unit marginals, returning the better of the
// ratio-greedy solution and the best feasible singleton. cost reports each
// candidate's (rescaled) cost. Each ratio round reads the add engine's
// full sweep; the first round probes every singleton, so its best entry is
// the fallback.
func BudgetedGreedy(f Oracle, n int, cost func(int) float64, opts ...Option) Result {
	co, rt := traceRun(f, "budgeted")
	ev := newEvaluator(opts)
	defer ev.close()
	eng := newAddEngine(co, ev, n)

	var set []int
	member := bitset.New(n)
	cur := co.Value(set)
	single, singleVal := -1, 0.0
	for {
		eng.sweep(set, member, cur)
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		if len(set) == 0 {
			single, singleVal = eng.top()
		}
		// The best ratio of a positive gain, zero cost ranking +Inf; the
		// lowest index on ties.
		best, bestRatio := -1, 0.0
		for i, e := range eng.fresh {
			if e.gain <= 0 {
				continue
			}
			ratio := math.Inf(1)
			if c := cost(int(e.idx)); c > 0 {
				ratio = e.gain / c
			}
			if best < 0 || ratio > bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			break
		}
		e := eng.fresh[best]
		set = with(set, int(e.idx))
		member.Add(int(e.idx))
		cur = e.val
	}

	if single >= 0 && singleVal > cur {
		set, cur = []int{single}, singleVal
	}
	return rt.finish(set, cur)
}
