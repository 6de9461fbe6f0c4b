package selection

import "math"

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
// candidate's (rescaled) cost.
func BudgetedGreedy(f Oracle, n int, cost func(int) float64, opts ...Option) Result {
	co, rt := traceRun(f, "budgeted")
	ev := newEvaluator(opts)
	defer ev.close()

	// Ratio greedy.
	var set []int
	cur := co.Value(set)
	taken := make([]bool, n)
	vals := make([]float64, n)
	ok := make([]bool, n)
	for {
		probe := beginAdds(co, set)
		ev.sweep(n, func(x int) {
			ok[x] = false
			if taken[x] {
				return
			}
			cand := with(set, x)
			if !co.Feasible(cand) {
				return
			}
			vals[x] = probe.value(cand, x)
			ok[x] = true
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		bestIdx := -1
		bestRatio := 0.0
		bestVal := cur
		for x := 0; x < n; x++ {
			if !ok[x] {
				continue
			}
			delta := vals[x] - cur
			if delta <= 0 {
				continue
			}
			c := cost(x)
			ratio := delta
			if c > 0 {
				ratio = delta / c
			} else {
				ratio = math.Inf(1)
			}
			if bestIdx < 0 || ratio > bestRatio {
				bestIdx, bestRatio, bestVal = x, ratio, vals[x]
			}
		}
		if bestIdx < 0 {
			break
		}
		taken[bestIdx] = true
		set = with(set, bestIdx)
		cur = bestVal
	}

	// Best feasible singleton.
	singleton, sVal := bestSingleton(co, n, ev)
	if ev.canceled() {
		return rt.finishErr(set, cur, ErrCanceled)
	}
	if singleton != nil && sVal > cur {
		set, cur = singleton, sVal
	}
	return rt.finish(set, cur)
}
