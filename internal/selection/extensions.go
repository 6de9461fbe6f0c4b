package selection

import (
	"math"

	"freshsource/internal/obs"
)

// This file extends the paper's algorithm suite with two standard
// submodular-optimization tools that a production deployment wants:
//
//   - LazyGreedy (CELF): greedy with lazy marginal re-evaluation. For
//     monotone submodular objectives the marginal gain of a candidate can
//     only shrink as the solution grows, so a stale upper bound from an
//     earlier round often suffices to skip re-evaluation. Far fewer oracle
//     calls than Greedy, and the same output whenever the float marginal
//     gains the oracle returns never rise between rounds (see LazyGreedy).
//
//   - BudgetedGreedy: the cost-benefit greedy for a knapsack budget βc
//     (Definition 3's constraint, which the paper's experiments leave
//     unconstrained): grow by the best marginal-profit-per-unit-cost
//     candidate that fits, and return the better of that solution and the
//     best feasible singleton — the classic (1−1/√e)-style guarantee
//     construction.

// celfEntry is one priority-queue entry of the CELF lazy greedy: the last
// oracle value observed for set ∪ {idx} and the marginal gain it implied,
// stamped with the solution size (round) it was computed at.
type celfEntry struct {
	idx   int32
	round int32
	gain  float64
	val   float64
}

// celfBefore is the CELF heap order. The invariant that makes lazy
// evaluation exact (see DESIGN.md): diminishing marginal gains make every
// stale gain an upper bound on the candidate's current gain, so the true
// best candidate can never hide below a fresh top. The invariant is about
// the float gains the oracle actually returns; where rounding lifts one
// above its stale bound, lazy evaluation may adopt a near-tie Greedy
// would not. Priority is
//
//	gain desc → round asc → val desc → idx asc
//
// gain desc surfaces the most promising bound. round asc breaks gain ties
// stale-before-fresh: a stale bound tied with a fresh gain might still
// cover a candidate Greedy would prefer, so it must be recomputed before
// the fresh entry may win. Among fresh entries (equal round) gain ties are
// broken by val desc then idx asc, because Greedy's sequential argmax
// compares oracle values, not gains — two values that round to the same
// gain against the current solution value are still distinct values, and
// equal values resolve to the lowest index (Greedy's strict `>` scan).
func celfBefore(a, b celfEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.round != b.round {
		return a.round < b.round
	}
	if a.val != b.val {
		return a.val > b.val
	}
	return a.idx < b.idx
}

// celfHeap is a value-typed binary max-heap under celfBefore (no
// container/heap interface boxing on the hot pop/fix path).
type celfHeap []celfEntry

func (h celfHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && celfBefore(h[r], h[l]) {
			best = r
		}
		if !celfBefore(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h celfHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pop removes and returns the top entry.
func (h *celfHeap) pop() celfEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).siftDown(0)
	return top
}

// LazyGreedy is the CELF-accelerated greedy: plain Greedy's move sequence
// driven by a max-heap of stale marginal gains instead of a full candidate
// rescan per round. The result is identical to Greedy's — same Set, same
// Value — at a fraction of the oracle calls whenever the float marginal
// gains the oracle returns never rise between rounds. Monotone submodular
// objectives (and profit = submodular gain − additive cost) guarantee that
// in exact arithmetic, and it holds exactly when values are exact floats,
// but rounding can break it: a gain that is flat in exact arithmetic may
// wobble by a few ulps and rise above its stale bound, and LazyGreedy then
// adopts a near-tie in a different order (DESIGN.md §5d has a reproduced
// case). Greedy therefore stays the exact full scan. On objectives without
// diminishing gains LazyGreedy is a heuristic (a stale bound may hide a
// better candidate). Feasibility must be downward-closed (supersets of an
// infeasible set stay infeasible — true of the additive budget and of
// matroid constraints), as rejected candidates are dropped for good.
//
// The initial singleton sweep is Greedy's first round, fanned across
// workers like any wide sweep; after it, every stale recompute and every
// adoption happens one heap pop at a time. The run is therefore
// byte-identical at any worker count, OracleCalls included.
func LazyGreedy(f Oracle, n int, opts ...Option) Result {
	co, rt := traceRun(f, "lazygreedy")
	stale := obs.Counter("selection.lazygreedy.stale_recomputes")
	adds := obs.Counter("selection.lazygreedy.adds")
	ev := newEvaluator(opts)
	defer ev.close()
	var set []int
	cur := co.Value(set)

	// Initial bounds: one full singleton sweep — exactly Greedy's first
	// round, so the heap starts from the same values Greedy scans.
	vals := make([]float64, n)
	ok := make([]bool, n)
	probe := beginAdds(co, set)
	ev.sweep(n, func(x int) {
		ok[x] = false
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
	h := make(celfHeap, 0, n)
	for x := 0; x < n; x++ {
		if ok[x] {
			h = append(h, celfEntry{idx: int32(x), gain: vals[x] - cur, val: vals[x]})
		}
	}
	h.init()

	var round int32
	for len(h) > 0 {
		if ev.canceled() {
			// cur is the oracle-exact value of set after every completed
			// move, so the canceled pair is already consistent.
			return rt.finishErr(set, cur, ErrCanceled)
		}
		top := &h[0]
		if top.gain <= 0 {
			// Even the most optimistic bound does not improve: Greedy's
			// stopping condition (no value strictly above cur — a nonzero
			// float difference never rounds to zero, so gain > 0 ⟺ val > cur).
			break
		}
		if top.round == round {
			// Fresh and on top: this is Greedy's argmax. Adopt its oracle
			// value directly (never cur + gain, which would accumulate
			// rounding).
			e := h.pop()
			set = with(set, int(e.idx))
			cur = e.val
			round++
			adds.Inc()
			probe = beginAdds(co, set)
			continue
		}
		// Stale: recompute against the current solution and restore the
		// heap order. Infeasible candidates leave for good
		// (downward-closed feasibility).
		cand := with(set, int(top.idx))
		if !co.Feasible(cand) {
			h.pop()
			continue
		}
		v := probe.value(cand, int(top.idx))
		top.val = v
		top.gain = v - cur
		top.round = round
		stale.Inc()
		h.siftDown(0)
	}
	return rt.finish(set, cur)
}

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
