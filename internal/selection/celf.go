package selection

import (
	"math"

	"freshsource/internal/bitset"
	"freshsource/internal/obs"
)

// SubmodularOracle is an Oracle that can vouch for diminishing marginal
// gains: f(S ∪ {x}) − f(S) never grows as S grows. gain.Profit reports it
// for the gains the paper proves submodular (Cov*, GF* and DATAGAIN, less
// an additive cost). Greedy and MaxSub's add moves then probe lazily
// (CELF); oracles without the method, or reporting false, get the full
// scan.
type SubmodularOracle interface {
	Oracle
	Submodular() bool
}

// celfSlack is the rounding slack δ of the lazy adoption test, relative to
// max(1, |f(S)|): a stale bound can hide the pick only if its gain lies
// within δ of the pick's. The profit oracles are fixed-order sums of
// non-negative terms rescaled to [0, 1], so each evaluation's forward
// error is at most γ_K = K·u/(1−K·u) of that magnitude, with u = 2⁻⁵³ and
// K the longest chain of roundings in one evaluation. A marginal gain
// compares four evaluations (two per round), so rounding lifts a float
// gain above its exact-arithmetic stale bound by at most about 4·γ_K. 2⁻³⁰
// covers K up to 2²⁰ with margin — a tick × domain-point × set-size
// product well past the paper-scale corpus — and lies more than 2¹⁰ times
// above the largest rise the differential tests measure (DESIGN.md §5d).
const celfSlack = 0x1p-30

// celfEntry is one candidate probed against some set: the oracle value of
// set ∪ {idx} and the marginal gain it implied over f(set).
type celfEntry struct {
	idx  int32
	gain float64
	val  float64
}

// celfBefore orders the heap of stale bounds: highest gain first, then
// lowest index, so the pop sequence (and with it the oracle-call count) is
// deterministic.
func celfBefore(a, b celfEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.idx < b.idx
}

// greedyBefore is Greedy's own rule over entries probed against the same
// set: the higher value wins, and equal values go to the lower index (the
// full scan's strict `>` in index order).
func greedyBefore(a, b celfEntry) bool {
	if a.val != b.val {
		return a.val > b.val
	}
	return a.idx < b.idx
}

// celfHeap is a value-typed binary max-heap under celfBefore (no
// container/heap interface boxing on the hot pop path).
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

func (h celfHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !celfBefore(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
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

// addEngine finds Greedy's next add move — the feasible non-member x with
// the highest f(S ∪ {x}), lowest index on ties, provided it beats f(S) —
// for Greedy, for MaxSub's add moves and for the exchanges of the matroid
// search that drop nothing. A sweep probes every candidate against S;
// BudgetedGreedy's ratio rounds and GRASP's construction steps read each
// sweep's fresh entries whole and apply their own rules. On the lazy path
// (the oracle reports submodularity) one sweep seeds the engine and each
// later pick re-probes only the stale bounds that could still reach it
// (CELF); otherwise every pick sweeps.
//
// Entries probed against the current set are fresh; taking a pick turns
// the other fresh entries into stale bounds in the heap. Diminishing
// returns make each stale gain an upper bound on the candidate's current
// gain up to the rounding slack δ, so a stale entry needs a re-probe only
// while its gain + δ reaches the best fresh gain: then the pick equals the
// full scan's, bit for bit. Feasibility must be downward-closed (budgets,
// matroids), since a candidate found infeasible leaves for good.
type addEngine struct {
	co   *CountingOracle
	ev   evaluator
	n    int
	lazy bool
	// fits reports whether x may join: cand is the set with x appended.
	// It defaults to the oracle's Feasible; the matroid search folds in
	// its matroids and ground set.
	fits func(cand []int, x int) bool
	// valid reports that fresh and h describe the current set; a full-scan
	// take or invalidate clears it, and the next pick sweeps.
	valid bool
	h     celfHeap    // stale bounds, probed against earlier subsets
	fresh []celfEntry // probed against the current set
	best  int         // index into fresh of Greedy's pick so far; -1 if none
	probe addProber
	// reprobe reports that probe still describes the set before the last
	// take.
	reprobe bool
	vals    []float64
	ok      []bool
	// cand is the re-probes' set ∪ {x}, reused from one probe to the next
	// (an oracle may not retain the set it is passed).
	cand []int

	restale, slack *obs.CounterVar
	rise           *obs.HistogramVar
}

func newAddEngine(co *CountingOracle, ev evaluator, n int) *addEngine {
	a := &addEngine{
		co:      co,
		ev:      ev,
		n:       n,
		lazy:    co.Submodular(),
		best:    -1,
		fresh:   make([]celfEntry, 0, n),
		vals:    make([]float64, n),
		ok:      make([]bool, n),
		restale: obs.Counter("selection.celf.stale_recomputes"),
		slack:   obs.Counter("selection.celf.slack_recomputes"),
		rise:    obs.Histogram("selection.celf.bound_rise"),
	}
	a.fits = func(cand []int, _ int) bool { return co.Feasible(cand) }
	if a.lazy {
		a.h = make(celfHeap, 0, n)
	}
	return a
}

// sweep probes every feasible candidate outside member against set — the
// full scan's round, fanned across the sweep pool when wide — and makes
// the results the fresh entries, discarding every stale bound. member may
// be nil for the singleton sweep over the empty set.
func (a *addEngine) sweep(set []int, member *bitset.Set, cur float64) {
	a.probe, a.reprobe = beginAdds(a.co, set), false
	a.ev.sweep(a.n, func(x int) {
		a.ok[x] = false
		if member != nil && member.Contains(x) {
			return
		}
		cand := with(set, x)
		if !a.fits(cand, x) {
			return
		}
		a.vals[x] = a.probe.value(cand, x)
		a.ok[x] = true
	})
	a.h, a.fresh, a.best = a.h[:0], a.fresh[:0], -1
	if a.ev.canceled() {
		return
	}
	for x := 0; x < a.n; x++ {
		if a.ok[x] {
			a.addFresh(celfEntry{idx: int32(x), gain: a.vals[x] - cur, val: a.vals[x]})
		}
	}
	a.valid = true
}

// seed makes singleton probes taken before the engine existed its fresh
// entries for the empty set: vals[x] = f({x}) for every x in cands, over
// empty = f(∅). The matroid search probes the singletons once and seeds
// each of MatroidMax's runs from them instead of sweeping again.
func (a *addEngine) seed(vals []float64, cands []int, empty float64) {
	a.h, a.fresh, a.best = a.h[:0], a.fresh[:0], -1
	for _, x := range cands {
		a.addFresh(celfEntry{idx: int32(x), gain: vals[x] - empty, val: vals[x]})
	}
	a.valid, a.reprobe = true, true
}

func (a *addEngine) addFresh(e celfEntry) {
	a.fresh = append(a.fresh, e)
	if a.best < 0 || greedyBefore(e, a.fresh[a.best]) {
		a.best = len(a.fresh) - 1
	}
}

// top returns the best fresh entry, whether or not it beats f(set), or
// x = −1 when there is none.
func (a *addEngine) top() (int, float64) {
	if a.best < 0 {
		return -1, 0
	}
	b := a.fresh[a.best]
	return int(b.idx), b.val
}

// next returns Greedy's pick against set (cur = f(set)) and its value, or
// x = −1 when no feasible addition beats cur. A canceled run also returns
// −1; callers check the evaluator before trusting it.
func (a *addEngine) next(set []int, member *bitset.Set, cur float64) (int, float64) {
	if !a.valid {
		a.sweep(set, member, cur)
	}
	delta := celfSlack * math.Max(1, math.Abs(cur))
	for len(a.h) > 0 {
		if a.ev.canceled() {
			return -1, 0
		}
		// The top's gain + δ bounds the current gain of every stale entry.
		g := a.h[0].gain
		bound := g + delta
		if bound <= 0 {
			break // no stale candidate can beat cur
		}
		// forced: plain CELF, trusting stale gains exactly, would have
		// stopped (g ≤ 0) or adopted the pick (g < its gain) instead.
		forced := g <= 0
		if a.best >= 0 {
			bg := a.fresh[a.best].gain
			if bound < bg {
				break // every stale candidate trails the pick strictly
			}
			forced = forced || g < bg
		}
		e := a.h.pop()
		a.cand = append(append(a.cand[:0], set...), int(e.idx))
		if !a.fits(a.cand, int(e.idx)) {
			continue
		}
		if a.reprobe {
			a.probe, a.reprobe = beginAdds(a.co, set), false
		}
		v := a.probe.value(a.cand, int(e.idx))
		a.restale.Inc()
		if forced {
			a.slack.Inc()
		}
		f := celfEntry{idx: e.idx, gain: v - cur, val: v}
		if f.gain > e.gain {
			a.rise.Observe((f.gain - e.gain) / delta)
		}
		a.addFresh(f)
	}
	x, v := a.top()
	if x < 0 || !(v > cur) {
		return -1, 0
	}
	return x, v
}

// take commits the best fresh entry (the last next or top result). On the
// lazy path the other fresh entries become stale bounds for the grown set;
// on the full scan they are dropped and the next pick sweeps again.
func (a *addEngine) take() {
	if a.lazy {
		base := len(a.h)
		for i, e := range a.fresh {
			if i != a.best {
				a.h = append(a.h, e)
			}
		}
		if base == 0 {
			a.h.init()
		} else {
			for i := base; i < len(a.h); i++ {
				a.h.siftUp(i)
			}
		}
	} else {
		a.valid = false
	}
	a.fresh, a.best, a.reprobe = a.fresh[:0], -1, true
}

// invalidate drops every entry after a move other than an add: a delete
// or a swap can raise marginal gains and make dropped candidates feasible
// again, so the next pick sweeps.
func (a *addEngine) invalidate() { a.valid = false }
