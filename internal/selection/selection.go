// Package selection implements the source-selection algorithms of
// Section 5 of the paper and the GRASP baseline of Dong et al. that the
// paper compares against:
//
//   - Greedy: the marginal-gain greedy of Dong et al. — iteratively add the
//     candidate that most improves profit until no addition improves. On
//     oracles that report submodularity it runs CELF (lazy evaluation of
//     stale marginal gains, Leskovec et al.) with a rounding slack that
//     keeps its answer bit-identical to the full scan; see addEngine.
//   - MaxSub (Algorithm 1): the Feige–Mirrokni local search for maximizing
//     a (possibly non-monotone) submodular function, with add and delete
//     moves gated by the (1+ε/n²) improvement threshold, returning the
//     better of the local optimum and its complement. Its add moves run on
//     Greedy's engine, lazily until a delete.
//   - MatroidLocalSearch / MatroidMax (Algorithms 3 and 2): the Lee et al.
//     local search under k matroid constraints with delete and exchange
//     moves gated by (1+ε/n⁴), run k+1 times on shrinking ground sets. Its
//     exchanges that drop nothing are adds on Greedy's engine; see
//     matroidSearch.
//   - GRASP(κ, r): r rounds of randomized greedy construction (uniform
//     choice among the κ best positive-marginal candidates) followed by
//     add/drop/swap hill climbing.
//   - BudgetedGreedy: the cost-benefit greedy for a knapsack budget, with
//     a best-singleton fallback (extensions.go).
//
// All algorithms consume a value oracle and an optional feasibility
// predicate (the budget βc) and report the selected set, its value, the
// number of oracle calls and the wall-clock duration.
//
// Every algorithm draws its moves from two kernels. The add engine
// (addEngine) probes the additions to the current set: Greedy's picks and
// the adds of MaxSub and the matroid search come from it, lazily where
// the oracle allows, and budgeted's ratio rounds and GRASP's construction
// steps read its full sweeps. The exchange sweep (exchangeSweep) probes
// every move that drops members: deletes, swaps, and the hill climb's
// adds, drops and swaps listed together. Both sweep through one engine
// (evaluator.sweep) that can fan evaluations across workers — see the
// Parallel option — and probe additions incrementally when the oracle
// implements IncrementalOracle. Both accelerations are exact: move values
// land at fixed indices, the argmax reduction runs sequentially in the
// historical scan order (ties resolve to the lowest-index move), and
// incremental probes are bit-identical to full evaluations, so accelerated
// runs return byte-identical Results to the plain sequential path. The
// same holds for the CELF path, which pools only its full sweeps and walks
// its heap of stale gains sequentially between them.
package selection

import (
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"freshsource/internal/bitset"
	"freshsource/internal/matroid"
	"freshsource/internal/obs"
	"freshsource/internal/stats"
)

// ErrCanceled is the Result.Err of a run stopped by its Context option
// before reaching a local optimum. The returned Set and Value still form a
// consistent pair — Value is the oracle's exact value of Set as of the last
// fully-completed move — but the set is not a finished selection.
var ErrCanceled = errors.New("selection: run canceled")

// Oracle is the profit value oracle f and the feasibility predicate (the
// budget constraint of Definitions 3–5). Implementations must be safe for
// concurrent calls when used with the Parallel option, and must not retain
// the set slice past the call: callers may reuse it.
type Oracle interface {
	Value(set []int) float64
	Feasible(set []int) bool
}

// Result reports one algorithm run.
type Result struct {
	// Set is the selected candidate set.
	Set []int
	// Value is f(Set).
	Value float64
	// OracleCalls is the exact number of value-oracle evaluations the run
	// performed: every algorithm counts through a CountingOracle wrapper,
	// so the count never depends on the oracle implementing one.
	// Incremental ValueAdd probes count exactly like the full Value
	// evaluations they replace, so for every algorithm the count is
	// identical across the sequential, parallel and incremental paths.
	OracleCalls int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// Err is non-nil when the run did not complete: ErrCanceled when the
	// Context option's context fired. Set and Value then hold the last
	// fully-completed state (possibly the empty set) — never the partial
	// reduction of an interrupted sweep.
	Err error
}

// without returns set \ {xs...}.
func without(set []int, xs ...int) []int {
	out := make([]int, 0, len(set))
	for _, y := range set {
		drop := false
		for _, x := range xs {
			if y == x {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, y)
		}
	}
	return out
}

// with returns set ∪ {x} (assumes x ∉ set).
func with(set []int, x int) []int {
	out := make([]int, 0, len(set)+1)
	out = append(out, set...)
	return append(out, x)
}

// members builds the O(1) membership index the sweep loops test instead of
// scanning the set.
func members(n int, set []int) *bitset.Set {
	m := bitset.New(n)
	for _, x := range set {
		m.Add(x)
	}
	return m
}

// resetMembers re-syncs a membership bitset after a delete or exchange
// move replaced the set.
func resetMembers(m *bitset.Set, set []int) {
	m.Clear()
	for _, x := range set {
		m.Add(x)
	}
}

// addProber probes single-candidate additions, incrementally against
// cached set state when the oracle supports it and by full evaluation
// otherwise. The zero cost of re-deriving this per round keeps the cached
// state consistent with the current set.
type addProber struct {
	co    *CountingOracle
	state any
	incr  bool
}

// beginAdds caches add-probe state for the current set.
func beginAdds(co *CountingOracle, set []int) addProber {
	state, incr := co.tryBeginAdd(set)
	return addProber{co: co, state: state, incr: incr}
}

// value returns f(cand) where cand = set ∪ {x} for the prober's set.
func (p addProber) value(cand []int, x int) float64 {
	if p.incr {
		return p.co.valueAdd(p.state, x)
	}
	return p.co.Value(cand)
}

// grow returns s with length n, reallocating only when capacity falls
// short; contents are overwritten by the sweep.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// exchangeSweep is the second move kernel, behind every move that drops
// members: the deletes of MaxSub and of the matroid search, the matroid
// search's swaps, and GRASP's hill climb. A move is a base set — the
// current set less some members — plus at most one added element. One
// sweep evaluates every listed move, fanned across the sweep pool when
// wide. A move that adds x must fit; a drop, which adds nothing, is never
// feasibility-gated, since shrinking a feasible set keeps it within an
// additive budget and independent. A drop evaluates its base in full; the
// moves that add to one base probe through one add-probe state, built by
// the first of them that fits. The winner is the first best move in list
// order, so callers list moves in their scan order.
type exchangeSweep struct {
	co *CountingOracle
	ev evaluator
	// fits reports whether x may join a base: cand is the base with x
	// appended. It defaults to the oracle's Feasible; the matroid search
	// folds in its matroids.
	fits func(cand []int, x int) bool

	bases  [][]int
	probes []addProber
	once   []sync.Once
	moves  []exchange
	vals   []float64
	ok     []bool
}

// exchange is one listed move: bases[base] with add appended, or the base
// alone when add < 0.
type exchange struct{ base, add int }

func newExchangeSweep(co *CountingOracle, ev evaluator) *exchangeSweep {
	x := &exchangeSweep{co: co, ev: ev}
	x.fits = func(cand []int, _ int) bool { return co.Feasible(cand) }
	return x
}

// reset empties the move list.
func (x *exchangeSweep) reset() { x.bases, x.moves = x.bases[:0], x.moves[:0] }

// base lists a base set, which must stay unchanged until the next reset,
// and returns its index.
func (x *exchangeSweep) base(set []int) int {
	x.bases = append(x.bases, set)
	return len(x.bases) - 1
}

// move lists base ∪ {add}, or the drop to the base alone when add < 0.
func (x *exchangeSweep) move(base, add int) { x.moves = append(x.moves, exchange{base, add}) }

// drops lists the moves that drop one member each, in set order, and
// returns the first one's base index: set less set[i] is base first+i.
func (x *exchangeSweep) drops(set []int) (first int) {
	first = len(x.bases)
	for _, y := range set {
		x.move(x.base(without(set, y)), -1)
	}
	return first
}

// best sweeps the listed moves and returns the first in list order of
// those with the highest value above floor: its index, value and set. k is
// −1 when no move fits and beats floor, or when the run was canceled;
// callers check the evaluator before trusting it.
func (x *exchangeSweep) best(floor float64) (k int, v float64, set []int) {
	nb, m := len(x.bases), len(x.moves)
	x.probes, x.once = grow(x.probes, nb), grow(x.once, nb)
	clear(x.probes)
	clear(x.once)
	x.vals, x.ok = grow(x.vals, m), grow(x.ok, m)
	x.ev.sweep(m, func(i int) {
		x.ok[i] = false
		mv := x.moves[i]
		base := x.bases[mv.base]
		if mv.add < 0 {
			x.vals[i] = x.co.Value(base)
		} else {
			cand := with(base, mv.add)
			if !x.fits(cand, mv.add) {
				return
			}
			x.once[mv.base].Do(func() { x.probes[mv.base] = beginAdds(x.co, base) })
			x.vals[i] = x.probes[mv.base].value(cand, mv.add)
		}
		x.ok[i] = true
	})
	if x.ev.canceled() {
		return -1, 0, nil
	}
	k, v = -1, floor
	for i := 0; i < m; i++ {
		if x.ok[i] && x.vals[i] > v {
			k, v = i, x.vals[i]
		}
	}
	if k < 0 {
		return -1, 0, nil
	}
	mv := x.moves[k]
	if set = x.bases[mv.base]; mv.add >= 0 {
		set = with(set, mv.add)
	}
	return k, v, set
}

// Greedy is the greedy baseline of Dong et al.: starting from the empty
// set, repeatedly add the feasible candidate with the best positive
// marginal profit (the highest f(S ∪ {x}), lowest index on ties); stop
// when no addition improves. When the oracle reports submodularity
// (SubmodularOracle) the rounds after the first probe lazily (CELF, see
// addEngine) and return the full scan's exact Set and Value at a fraction
// of its oracle calls; otherwise every round scans every candidate.
func Greedy(f Oracle, n int, opts ...Option) Result {
	co, rt := traceRun(f, "greedy")
	adds := obs.Counter("selection.greedy.adds")
	ev := newEvaluator(opts)
	defer ev.close()
	eng := newAddEngine(co, ev, n)
	var set []int
	member := bitset.New(n)
	cur := co.Value(set)
	for {
		x, v := eng.next(set, member, cur)
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		if x < 0 {
			break
		}
		eng.take()
		set = with(set, x)
		member.Add(x)
		cur = v
		adds.Inc()
	}
	return rt.finish(set, cur)
}

// improves implements the multiplicative improvement threshold
// f(new) > (1 + ε/d)·f(cur) of Algorithms 1 and 3, made robust to
// non-positive values: the required improvement is ε/d of |f(cur)|, with a
// tiny absolute floor to guarantee termination.
func improves(newV, curV, eps, denom float64) bool {
	delta := (eps / denom) * math.Abs(curV)
	if delta < 1e-12 {
		delta = 1e-12
	}
	return newV > curV+delta
}

// MaxSub is Algorithm 1 of the paper (Feige & Mirrokni local search). eps
// is the approximation slack ε; the thresholds use ε/n². Its add move is
// Greedy's pick gated by the threshold, so it runs on Greedy's add engine:
// lazily on submodular oracles, with the singleton sweep seeding the heap,
// until a delete move forces a fresh sweep.
func MaxSub(f Oracle, n int, eps float64, opts ...Option) Result {
	co, rt := traceRun(f, "maxsub")
	moves := obs.Counter("selection.maxsub.moves")
	if n == 0 {
		return rt.finish(nil, co.Value(nil))
	}
	ev := newEvaluator(opts)
	defer ev.close()
	eng := newAddEngine(co, ev, n)
	denom := float64(n) * float64(n)

	// Ln. 3: best feasible singleton. On the lazy path the sweep's gains
	// over f(∅) become the heap's first bounds.
	var empty float64
	if eng.lazy {
		empty = co.Value(nil)
	}
	eng.sweep(nil, nil, empty)
	if ev.canceled() {
		return rt.finishErr(nil, co.Value(nil), ErrCanceled)
	}
	x, cur := eng.top()
	if x < 0 {
		if !eng.lazy {
			empty = co.Value(nil)
		}
		return rt.finish(nil, empty)
	}
	eng.take()
	set := []int{x}
	member := members(n, set)

	// Ln. 4–10: local add/delete moves.
	dels := newExchangeSweep(co, ev)
	for {
		moved := false
		// Addition: the best addition, if it clears the threshold.
		x, v := eng.next(set, member, cur)
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		if x >= 0 && improves(v, cur, eps, denom) {
			eng.take()
			set, cur = with(set, x), v
			member.Add(x)
			moved = true
			moves.Inc()
		}
		// Deletion: the best drop, if it clears the threshold.
		dels.reset()
		dels.drops(set)
		k, v, next := dels.best(cur)
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		if k >= 0 && improves(v, cur, eps, denom) {
			member.Remove(set[k])
			set, cur = next, v
			eng.invalidate()
			moved = true
			moves.Inc()
		}
		if !moved {
			break
		}
	}

	// Ln. 11: compare with the complement.
	comp := make([]int, 0, n-len(set))
	for x := 0; x < n; x++ {
		if !member.Contains(x) {
			comp = append(comp, x)
		}
	}
	if co.Feasible(comp) {
		if v := co.Value(comp); v > cur {
			set, cur = comp, v
		}
	}
	return rt.finish(set, cur)
}

// MatroidLocalSearch is Algorithm 3: local search over ground (a subset of
// {0,…,n-1}) under the intersection of the given matroids, with delete and
// exchange moves gated by (1+ε/n⁴). An exchange brings in one element d
// and drops the members that block d in some matroid, if any; among
// equally good moves the lowest index wins. Exchanges that drop nothing
// are adds and run on Greedy's add engine, lazily on submodular oracles
// until a delete or a swap; see matroidSearch.
func MatroidLocalSearch(f Oracle, ground []int, ms []matroid.Matroid, eps float64, opts ...Option) Result {
	co, rt := traceRun(f, "matroidlocal")
	if len(ground) == 0 {
		return rt.finish(nil, co.Value(nil))
	}
	ev := newEvaluator(opts)
	defer ev.close()
	s := newMatroidSearch(co, ev, ms, eps, ground)
	if !s.probeSingletons(ground) {
		return rt.finishErr(nil, co.Value(nil), ErrCanceled)
	}
	set, cur, done := s.run(ground)
	if !done {
		return rt.finishErr(set, cur, ErrCanceled)
	}
	return rt.finish(set, cur)
}

// MatroidMax is Algorithm 2: run the local search k+1 times on shrinking
// ground sets (removing each round's selection) and return the best round.
// The runs share one sweep of the singletons (Ln. 3 of Algorithm 3).
func MatroidMax(f Oracle, n int, ms []matroid.Matroid, eps float64, opts ...Option) Result {
	co, rt := traceRun(f, "matroidmax")
	if n == 0 {
		return rt.finish(nil, co.Value(nil))
	}
	ev := newEvaluator(opts)
	defer ev.close()
	ground := make([]int, n)
	for i := range ground {
		ground[i] = i
	}
	s := newMatroidSearch(co, ev, ms, eps, ground)
	if !s.probeSingletons(ground) {
		return rt.finishErr(nil, co.Value(nil), ErrCanceled)
	}
	var best []int
	bestVal := math.Inf(-1)
	for i := 0; i <= len(ms) && len(ground) > 0; i++ {
		set, cur, done := s.run(ground)
		if cur > bestVal {
			best, bestVal = set, cur
		}
		if !done {
			return rt.finishErr(best, bestVal, ErrCanceled)
		}
		ground = without(ground, set...)
	}
	return rt.finish(best, bestVal)
}

// matroidSearch holds what the runs of Algorithm 3 within one call share:
// the oracle, the evaluator, the matroids, the singleton probes and the
// exchange sweep.
//
// Each run's exchange step splits Ln. 8–10's moves in two. An exchange
// whose element d every matroid admits as it is drops nothing: it is an
// add, and the run's add engine supplies the best one, with the matroids
// and the ground set folded into its feasibility. Only the elements some
// matroid blocks are probed as swaps, on the exchange sweep, whose moves
// on one distinct base set − R share one add-probe state. A delete or a
// swap invalidates the engine, as MaxSub's deletes do; on submodular
// oracles the adds between them probe lazily, and the singleton sweep's
// gains over f(∅) seed every run's heap. The best exchange is the better
// of the best add and the best swap, lowest index on ties, and both are
// exact, so each run takes the move a full scan of every exchange would
// take.
type matroidSearch struct {
	co  *CountingOracle
	ev  evaluator
	ms  []matroid.Matroid
	eps float64
	// gateN is the n of the (1+ε/n⁴) gate: the largest matroid ground
	// set, or 0 without matroids, when a run gates by its own ground set's
	// size.
	gateN int
	// n bounds every index the search meets (matroid and ground elements).
	n    int
	lazy bool
	// vals[x] = f({x}) where ok[x]: x's singleton is independent and
	// feasible. empty is f(∅), the base of the lazy path's gains.
	vals  []float64
	ok    []bool
	empty float64

	// x sweeps the delete and swap steps; rs[b] is the R of the swap
	// step's base b.
	x  *exchangeSweep
	rs [][]int

	moves *obs.CounterVar
}

func newMatroidSearch(co *CountingOracle, ev evaluator, ms []matroid.Matroid, eps float64, ground []int) *matroidSearch {
	s := &matroidSearch{co: co, ev: ev, ms: ms, eps: eps, lazy: co.Submodular(),
		x: newExchangeSweep(co, ev), moves: obs.Counter("selection.matroidlocal.moves")}
	s.x.fits = func(cand []int, _ int) bool {
		return matroid.AllIndependent(ms, cand) && co.Feasible(cand)
	}
	for _, m := range ms {
		s.gateN = max(s.gateN, m.N())
	}
	s.n = max(s.gateN, len(ground))
	for _, x := range ground {
		s.n = max(s.n, x+1)
	}
	s.vals = make([]float64, s.n)
	s.ok = make([]bool, s.n)
	return s
}

// probeSingletons is Ln. 3's sweep: it probes f({x}) for every element of
// ground whose singleton is independent and feasible, and reports false
// when the run was canceled.
func (s *matroidSearch) probeSingletons(ground []int) bool {
	// Each distinct element once: duplicates would write the same slot
	// from two sweep workers.
	xs := members(s.n, ground).Indices()
	probe := beginAdds(s.co, nil)
	s.ev.sweep(len(xs), func(i int) {
		x := xs[i]
		cand := []int{x}
		if !matroid.AllIndependent(s.ms, cand) || !s.co.Feasible(cand) {
			return
		}
		s.vals[x] = probe.value(cand, x)
		s.ok[x] = true
	})
	if s.ev.canceled() {
		return false
	}
	if s.lazy {
		s.empty = s.co.Value(nil)
	}
	return true
}

// emptyValue returns f(∅), evaluating it unless the lazy path holds it.
func (s *matroidSearch) emptyValue() float64 {
	if s.lazy {
		return s.empty
	}
	return s.co.Value(nil)
}

// run is one local search of Algorithm 3 over ground. It returns the last
// completed set and its value, and false when the run was canceled.
func (s *matroidSearch) run(ground []int) ([]int, float64, bool) {
	// The elements whose singleton is independent and feasible. Both
	// properties are downward-closed, so no other element of ground can
	// join any set the search holds.
	pool := bitset.New(s.n)
	for _, x := range ground {
		if s.ok[x] {
			pool.Add(x)
		}
	}
	cands := pool.Indices()
	if len(cands) == 0 {
		return nil, s.emptyValue(), true
	}
	gn := float64(s.gateN)
	if gn == 0 {
		gn = float64(len(ground))
	}
	denom := gn * gn * gn * gn

	eng := newAddEngine(s.co, s.ev, s.n)
	eng.fits = func(cand []int, x int) bool {
		return pool.Contains(x) && canAddAll(s.ms, cand[:len(cand)-1], x) && s.co.Feasible(cand)
	}
	// Ln. 3: the best singleton.
	eng.seed(s.vals, cands, s.empty)
	x, cur := eng.top()
	eng.take()
	set := []int{x}
	member := members(s.n, set)

	for {
		moved := false

		// Ln. 5–7: delete operation.
		s.x.reset()
		s.x.drops(set)
		k, v, next := s.x.best(cur)
		if s.ev.canceled() {
			return set, cur, false
		}
		if k >= 0 && improves(v, cur, s.eps, denom) {
			set, cur = next, v
			resetMembers(member, set)
			eng.invalidate()
			moved = true
			s.moves.Inc()
		}

		// Ln. 8–10: exchange operation — the best add or swap, if it
		// clears the gate.
		x, v = eng.next(set, member, cur)
		if s.ev.canceled() {
			return set, cur, false
		}
		d, dv, dset := s.bestSwap(set, member, cands, cur)
		if s.ev.canceled() {
			return set, cur, false
		}
		switch {
		case d >= 0 && (x < 0 || dv > v || dv == v && d < x):
			if improves(dv, cur, s.eps, denom) {
				set, cur = dset, dv
				resetMembers(member, set)
				eng.invalidate()
				moved = true
				s.moves.Inc()
			}
		case x >= 0 && improves(v, cur, s.eps, denom):
			eng.take()
			set, cur = with(set, x), v
			member.Add(x)
			moved = true
			s.moves.Inc()
		}

		if !moved {
			return set, cur, true
		}
	}
}

// bestSwap returns the best exchange that drops members and beats cur —
// the highest value, then the lowest d — as d, its value and its set
// (set − R) ∪ {d}; d is −1 when no element of cands outside the set is
// blocked, admissible and better than cur. The swaps are listed on the
// exchange sweep in d order, one base per distinct R.
func (s *matroidSearch) bestSwap(set []int, member *bitset.Set, cands []int, cur float64) (int, float64, []int) {
	s.x.reset()
	s.rs = s.rs[:0]
	for _, d := range cands {
		if member.Contains(d) {
			continue
		}
		r, ok := removals(s.ms, set, d)
		if !ok || len(r) == 0 {
			continue
		}
		b := slices.IndexFunc(s.rs, func(br []int) bool { return slices.Equal(br, r) })
		if b < 0 {
			b = s.x.base(without(set, r...))
			s.rs = append(s.rs, r)
		}
		s.x.move(b, d)
	}
	k, v, next := s.x.best(cur)
	if k < 0 {
		return -1, 0, nil
	}
	return s.x.moves[k].add, v, next
}

// removals returns R, the members an exchange bringing in d drops: each
// matroid in turn that refuses d after the earlier removals gives up its
// conflicts with set. R is empty when every matroid admits d as it is;
// ok is false when a matroid refuses d yet names no conflict.
func removals(ms []matroid.Matroid, set []int, d int) (r []int, ok bool) {
	for _, m := range ms {
		rest := set
		if len(r) > 0 {
			rest = without(set, r...)
		}
		if m.CanAdd(rest, d) {
			continue
		}
		conf := m.Conflicts(set, d)
		if conf == nil {
			return nil, false
		}
		r = append(r, conf...)
	}
	return r, true
}

// canAddAll reports whether every matroid admits x into set as it is.
func canAddAll(ms []matroid.Matroid, set []int, x int) bool {
	for _, m := range ms {
		if !m.CanAdd(set, x) {
			return false
		}
	}
	return true
}

// GRASP is the randomized multi-start of Dong et al.: r rounds of greedy
// randomized construction — at each step choose uniformly among the κ
// candidates with the largest positive marginal profit — followed by
// add/drop/swap hill climbing; the best round wins. (κ=1, r=1) degenerates
// to plain hill climbing. Construction reads the add engine's full sweeps
// and the hill climb runs on the exchange sweep.
//
// Randomization is unaffected by the Parallel option: the rng draws happen
// in the sequential reduction, and the candidate lists it draws from are
// assembled in index order, so a seeded run selects identically at any
// worker count.
func GRASP(f Oracle, n int, kappa, r int, rng *stats.RNG, opts ...Option) Result {
	co, rt := traceRun(f, "grasp")
	restarts := obs.Counter("selection.grasp.restarts")
	ev := newEvaluator(opts)
	defer ev.close()
	eng, x := newAddEngine(co, ev, n), newExchangeSweep(co, ev)
	best := Result{Value: math.Inf(-1)}
	for it := 0; it < r; it++ {
		restarts.Inc()
		set, cur := graspConstruct(eng, kappa, rng)
		if !ev.canceled() {
			set, cur = hillClimb(x, n, set, cur)
		}
		// A canceled round still yields a consistent (set, exact value)
		// pair — its last completed move — so it may enter the best.
		if cur > best.Value {
			best.Set = append([]int(nil), set...)
			best.Value = cur
		}
		if ev.canceled() {
			return rt.finishErr(best.Set, best.Value, ErrCanceled)
		}
	}
	if math.IsInf(best.Value, -1) {
		best = Result{Value: co.Value(nil)}
	}
	return rt.finish(best.Set, best.Value)
}

// graspConstruct is one randomized greedy construction: each step reads
// the add engine's full sweep — its fresh entries, in index order — and
// draws from the κ best that improve.
func graspConstruct(eng *addEngine, kappa int, rng *stats.RNG) ([]int, float64) {
	var set []int
	member := bitset.New(eng.n)
	cur := eng.co.Value(set)
	var cands []graspCand
	for {
		eng.sweep(set, member, cur)
		if eng.ev.canceled() {
			return set, cur
		}
		cands = cands[:0]
		for _, e := range eng.fresh {
			if e.val > cur {
				cands = append(cands, graspCand{int(e.idx), e.val})
			}
		}
		if len(cands) == 0 {
			return set, cur
		}
		// Restricted candidate list: the κ best by value.
		rankByValue(cands)
		rcl := cands
		if len(rcl) > kappa {
			rcl = rcl[:kappa]
		}
		pick := rcl[rng.Intn(len(rcl))]
		set = with(set, pick.x)
		member.Add(pick.x)
		cur = pick.v
	}
}

// graspCand is an improving candidate x of a GRASP construction step and
// its value f(S ∪ {x}).
type graspCand struct {
	x int
	v float64
}

// rankByValue orders cands by value, highest first, with an O(c²)
// exchange sort. Ties do not keep index order: an exchange can carry a
// candidate past its equals, so values 1, 1, 2 at indices 0, 1, 2 come
// out as indices 2, 1, 0. The order is still a fixed function of the
// list, which graspConstruct builds in index order, so the draw from it is
// deterministic for a seeded rng.
func rankByValue(cands []graspCand) {
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].v > cands[i].v {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
}

// hillClimb applies best-improvement add, drop and swap moves until a local
// optimum. Each round lists its moves on the exchange sweep in the
// historical scan order — adds, then drops, then swaps — and takes the
// first best strict improvement. The round sweeps all of them at once:
// drops are full evaluations, too few to fan out on their own.
func hillClimb(x *exchangeSweep, n int, set []int, cur float64) ([]int, float64) {
	movesCtr := obs.Counter("selection.hillclimb.moves")
	member := members(n, set)
	for {
		x.reset()
		whole := x.base(set)
		for y := 0; y < n; y++ {
			if !member.Contains(y) {
				x.move(whole, y)
			}
		}
		first := x.drops(set)
		for i := range set {
			for y := 0; y < n; y++ {
				if !member.Contains(y) {
					x.move(first+i, y)
				}
			}
		}
		k, v, next := x.best(cur)
		if k < 0 {
			return set, cur
		}
		set, cur = next, v
		resetMembers(member, set)
		movesCtr.Inc()
	}
}
