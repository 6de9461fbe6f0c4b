package selection

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/gain"
	"freshsource/internal/matroid"
	"freshsource/internal/timeline"
)

// The exhaustive checks below enumerate every single move on instances of
// at most 12 candidates and hold each algorithm's answer to its own
// definition: Greedy equals a brute-force full-scan greedy, MaxSub's local
// optimum admits no add or delete that passes its (1+ε/n²) gate, and each
// of MatroidMax's local searches admits no delete or exchange that passes
// the (1+ε/n⁴) gate. Every check runs on the full scan and on the lazy
// path; a lazy add that missed an improving move fails them.

// floatWC is weighted coverage less an additive cost in floats, under an
// optional budget on the cost. Items are summed in index order and costs
// in set order, so the value of a given set sequence is deterministic.
type floatWC struct {
	covers [][]int
	weight []float64
	cost   []float64
	budget float64
}

func (o *floatWC) Value(set []int) float64 {
	in := make([]bool, len(o.weight))
	var c float64
	for _, x := range set {
		for _, it := range o.covers[x] {
			in[it] = true
		}
		c += o.cost[x]
	}
	var g float64
	for it, w := range o.weight {
		if in[it] {
			g += w
		}
	}
	return g - c
}

func (o *floatWC) Feasible(set []int) bool {
	if o.budget <= 0 {
		return true
	}
	var c float64
	for _, x := range set {
		c += o.cost[x]
	}
	return c <= o.budget
}

func randomFloatWC(n int, seed int64) *floatWC {
	rng := rand.New(rand.NewSource(seed))
	items := 3 * n
	o := &floatWC{covers: make([][]int, n), weight: make([]float64, items), cost: make([]float64, n)}
	for i := range o.weight {
		o.weight[i] = 0.2 + rng.Float64()
	}
	for x := range o.covers {
		for it := 0; it < items; it++ {
			if rng.Intn(4) == 0 {
				o.covers[x] = append(o.covers[x], it)
			}
		}
		o.cost[x] = rng.Float64() * 0.8
	}
	if rng.Intn(2) == 0 {
		o.budget = 0.5 + rng.Float64()
	}
	return o
}

// tinyProfits builds profit oracles over tiny GDELT-like worlds: 10
// sources over a 4×2 domain, linear coverage at 4 spread ticks, with and
// without a budget.
func tinyProfits(t *testing.T) []*gain.Profit {
	t.Helper()
	var out []*gain.Profit
	for seed := int64(1); seed <= 3; seed++ {
		cfg := dataset.DefaultGDELTConfig()
		cfg.Locations, cfg.EventTypes, cfg.NumSources, cfg.Scale, cfg.Seed = 4, 2, 10, 0.3, seed
		d, err := dataset.GenerateGDELT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxT := d.Horizon() - 1
		est, err := estimate.NewFit(context.Background(), d.World, d.Sources, d.T0, maxT, nil, estimate.FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := gain.NewSharedItemCost(est, 10)
		if err != nil {
			t.Fatal(err)
		}
		ticks := []timeline.Tick{d.T0 + 1, d.T0 + 3, d.T0 + 4, maxT}
		for _, budget := range []float64{0, 0.3} {
			p, err := gain.NewProfit(est, ticks, gain.Linear{Metric: gain.Coverage}, cm)
			if err != nil {
				t.Fatal(err)
			}
			p.Budget = budget
			out = append(out, p)
		}
	}
	return out
}

// bruteGreedy is Greedy written out: each round evaluates every feasible
// addition by a full Value call and keeps the first strictly best one.
func bruteGreedy(f Oracle, n int) Result {
	var set []int
	cur := f.Value(nil)
	for {
		best, bestV := -1, cur
		for x := 0; x < n; x++ {
			if containsInt(set, x) {
				continue
			}
			cand := with(set, x)
			if !f.Feasible(cand) {
				continue
			}
			if v := f.Value(cand); v > bestV {
				best, bestV = x, v
			}
		}
		if best < 0 {
			return Result{Set: set, Value: cur}
		}
		set, cur = with(set, best), bestV
	}
}

// bruteMatroidMax is MatroidMax written out as a full scan: every run
// probes every singleton of its ground set, and every exchange step
// evaluates every admissible exchange — bring in d, dropping what blocks
// it — by a full Value call. Moves are gated by (1+ε/n⁴), and the first
// strictly best move in ground order wins.
func bruteMatroidMax(f Oracle, n int, ms []matroid.Matroid, eps float64) Result {
	co := Count(f)
	ground := complement(n, nil)
	best := Result{Value: math.Inf(-1)}
	for i := 0; i <= len(ms) && len(ground) > 0; i++ {
		set, cur := bruteMatroidLocal(co, ground, ms, eps)
		if cur > best.Value {
			best.Set, best.Value = set, cur
		}
		ground = without(ground, set...)
	}
	if math.IsInf(best.Value, -1) {
		best.Value = co.Value(nil)
	}
	best.Set = append([]int(nil), best.Set...)
	best.OracleCalls = co.Calls()
	return best
}

func bruteMatroidLocal(f Oracle, ground []int, ms []matroid.Matroid, eps float64) ([]int, float64) {
	gateN := 0
	for _, m := range ms {
		gateN = max(gateN, m.N())
	}
	if gateN == 0 {
		gateN = len(ground)
	}
	r := float64(gateN)
	denom := r * r * r * r
	var set []int
	cur := math.Inf(-1)
	for _, d := range ground {
		cand := []int{d}
		if !matroid.AllIndependent(ms, cand) || !f.Feasible(cand) {
			continue
		}
		if v := f.Value(cand); v > cur {
			set, cur = cand, v
		}
	}
	if set == nil {
		return nil, f.Value(nil)
	}
	for {
		moved := false
		var next []int
		bestVal := cur
		for _, y := range set {
			cand := without(set, y)
			if v := f.Value(cand); improves(v, cur, eps, denom) && v > bestVal {
				next, bestVal = cand, v
			}
		}
		if next != nil {
			set, cur, moved = next, bestVal, true
		}
		next, bestVal = nil, cur
		for _, d := range ground {
			if containsInt(set, d) {
				continue
			}
			var drop []int
			admissible := true
			for _, m := range ms {
				if m.CanAdd(without(set, drop...), d) {
					continue
				}
				conf := m.Conflicts(set, d)
				if conf == nil {
					admissible = false
					break
				}
				drop = append(drop, conf...)
			}
			if !admissible {
				continue
			}
			cand := with(without(set, drop...), d)
			if !matroid.AllIndependent(ms, cand) || !f.Feasible(cand) {
				continue
			}
			if v := f.Value(cand); improves(v, cur, eps, denom) && v > bestVal {
				next, bestVal = cand, v
			}
		}
		if next != nil {
			set, cur, moved = next, bestVal, true
		}
		if !moved {
			return set, cur
		}
	}
}

func containsInt(set []int, x int) bool {
	for _, y := range set {
		if y == x {
			return true
		}
	}
	return false
}

// complement returns {0,…,n−1} \ set in index order.
func complement(n int, set []int) []int {
	var out []int
	for x := 0; x < n; x++ {
		if !containsInt(set, x) {
			out = append(out, x)
		}
	}
	return out
}

// maxSubViolation returns a move from set that passes MaxSub's gate, or ""
// when set is a local optimum: no feasible addition and no deletion (never
// feasibility-gated, as in the algorithm) clears (1+ε/n²).
func maxSubViolation(f Oracle, n int, set []int, eps float64) string {
	cur := f.Value(set)
	denom := float64(n) * float64(n)
	for x := 0; x < n; x++ {
		if containsInt(set, x) {
			continue
		}
		cand := with(set, x)
		if f.Feasible(cand) && improves(f.Value(cand), cur, eps, denom) {
			return fmt.Sprintf("add %d", x)
		}
	}
	for _, x := range set {
		if improves(f.Value(without(set, x)), cur, eps, denom) {
			return fmt.Sprintf("delete %d", x)
		}
	}
	return ""
}

// checkMaxSub holds MaxSub's answer to Algorithm 1: it is feasible, and
// it is a local optimum L or L's complement with f(complement) > f(L).
func checkMaxSub(t *testing.T, label string, f Oracle, n int, r Result) {
	t.Helper()
	const eps = 0.1
	if !f.Feasible(r.Set) {
		t.Errorf("%s: infeasible answer %v", label, r.Set)
	}
	if v := maxSubViolation(f, n, r.Set, eps); v != "" {
		comp := complement(n, r.Set)
		if maxSubViolation(f, n, comp, eps) != "" || !(r.Value > f.Value(comp)) {
			t.Errorf("%s: answer %v is no local optimum (%s passes the gate) and not the better complement of one", label, r.Set, v)
		}
	}
}

// checkMatroidLocal holds MatroidLocalSearch's answer over ground to
// Algorithm 3 under the one-per-class partition matroid classOf: it is
// independent and feasible, and no deletion and no exchange — bring in
// d ∈ ground, dropping the member of d's class if there is one — clears
// (1+ε/n⁴).
func checkMatroidLocal(t *testing.T, label string, f Oracle, classOf, ground []int, r Result) {
	t.Helper()
	const eps = 0.1
	n := len(classOf)
	set := r.Set
	seen := map[int]bool{}
	for _, x := range set {
		if seen[classOf[x]] {
			t.Errorf("%s: answer %v holds two members of class %d", label, set, classOf[x])
		}
		seen[classOf[x]] = true
	}
	if !f.Feasible(set) {
		t.Errorf("%s: infeasible answer %v", label, set)
	}
	cur := f.Value(set)
	denom := math.Pow(float64(n), 4)
	for _, x := range set {
		if improves(f.Value(without(set, x)), cur, eps, denom) {
			t.Errorf("%s: deleting %d from %v passes the gate", label, x, set)
		}
	}
	for _, d := range ground {
		if containsInt(set, d) {
			continue
		}
		var drop []int
		for _, x := range set {
			if classOf[x] == classOf[d] {
				drop = append(drop, x)
			}
		}
		cand := with(without(set, drop...), d)
		if f.Feasible(cand) && improves(f.Value(cand), cur, eps, denom) {
			t.Errorf("%s: exchanging %d for %v in %v passes the gate", label, d, drop, set)
		}
	}
}

// checkMatroidMax holds MatroidMax's answer to Algorithm 2 under the
// one-per-class partition matroid classOf (k = 1): it is the better of two
// local searches, the second over the ground set less the first's answer,
// and each is a local optimum over its own ground set.
func checkMatroidMax(t *testing.T, label string, f Oracle, classOf []int, r Result) {
	t.Helper()
	pm, err := matroid.OnePerClass(classOf)
	if err != nil {
		t.Fatal(err)
	}
	ground := complement(len(classOf), nil)
	best := Result{Value: math.Inf(-1)}
	for run := 1; run <= 2 && len(ground) > 0; run++ {
		rr := MatroidLocalSearch(f, ground, []matroid.Matroid{pm}, 0.1)
		checkMatroidLocal(t, fmt.Sprintf("%s run %d", label, run), f, classOf, ground, rr)
		if rr.Value > best.Value {
			best = rr
		}
		ground = without(ground, rr.Set...)
	}
	requireSameSelection(t, label+" vs its runs", best, r)
}

// scan hides an oracle's submodularity, keeping its incremental probes, so
// Greedy and MaxSub take the full scan.
func scan(f Oracle) Oracle {
	if io, ok := f.(IncrementalOracle); ok {
		return struct{ IncrementalOracle }{io}
	}
	return struct{ Oracle }{f}
}

// checkExhaustive runs every check on one instance and returns the
// greedy answer's size.
func checkExhaustive(t *testing.T, label string, f Oracle, n int) int {
	t.Helper()
	want := bruteGreedy(f, n)
	for _, g := range []struct {
		name string
		r    Result
	}{{"greedy", Greedy(scan(f), n)}, {"greedy/lazy", Greedy(lazy(f), n)}} {
		if !reflect.DeepEqual(g.r.Set, want.Set) || math.Float64bits(g.r.Value) != math.Float64bits(want.Value) {
			t.Errorf("%s %s: %v (%v), brute-force greedy %v (%v)", label, g.name, g.r.Set, g.r.Value, want.Set, want.Value)
		}
	}
	full := MaxSub(scan(f), n, 0.1)
	celf := MaxSub(lazy(f), n, 0.1)
	checkMaxSub(t, label+" maxsub", f, n, full)
	checkMaxSub(t, label+" maxsub/lazy", f, n, celf)
	requireSameSelection(t, label+" maxsub lazy vs scan", full, celf)

	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i / 2
	}
	pm, err := matroid.OnePerClass(classOf)
	if err != nil {
		t.Fatal(err)
	}
	ms := []matroid.Matroid{pm}
	ground := complement(n, nil)
	full = MatroidLocalSearch(scan(f), ground, ms, 0.1)
	celf = MatroidLocalSearch(lazy(f), ground, ms, 0.1)
	checkMatroidLocal(t, label+" matroidlocal", f, classOf, ground, full)
	checkMatroidLocal(t, label+" matroidlocal/lazy", f, classOf, ground, celf)
	requireSameSelection(t, label+" matroidlocal lazy vs scan", full, celf)
	full = MatroidMax(scan(f), n, ms, 0.1)
	celf = MatroidMax(lazy(f), n, ms, 0.1)
	checkMatroidMax(t, label+" matroidmax", scan(f), classOf, full)
	checkMatroidMax(t, label+" matroidmax/lazy", lazy(f), classOf, celf)
	requireSameSelection(t, label+" matroidmax vs brute force", bruteMatroidMax(f, n, ms, 0.1), full)
	requireSameSelection(t, label+" matroidmax lazy vs scan", full, celf)
	return len(want.Set)
}

func TestExhaustiveLocalOptimaWeightedCoverage(t *testing.T) {
	deep := 0
	for seed := int64(1); seed <= 60; seed++ {
		n := 4 + int(seed%9) // 4…12 candidates
		if checkExhaustive(t, fmt.Sprintf("seed %d n=%d", seed, n), randomFloatWC(n, seed), n) >= 3 {
			deep++
		}
	}
	if deep < 10 {
		t.Errorf("only %d of 60 instances grew a greedy answer of 3 or more; the fixture is too shallow", deep)
	}
}

func TestExhaustiveLocalOptimaProfit(t *testing.T) {
	deep := 0
	for i, p := range tinyProfits(t) {
		n := p.Est.NumCandidates()
		if checkExhaustive(t, fmt.Sprintf("profit %d budget %v", i, p.Budget), p, n) >= 2 {
			deep++
		}
	}
	if deep == 0 {
		t.Error("no profit instance grew a greedy answer of 2 or more; the fixture is too shallow")
	}
}

// TestMatroidMaxMatchesBruteForce holds MatroidMax, on the full scan and
// the lazy path, to the full-scan loop bruteMatroidMax on integer
// weighted coverage, where equally good moves are common: same Set, same
// Value, and no more oracle calls. Random classes give both plain adds and
// swaps.
func TestMatroidMaxMatchesBruteForce(t *testing.T) {
	blocked := 0
	for seed := int64(1); seed <= 40; seed++ {
		n := 8 + int(seed%5)*6
		o := randomWC(n, seed)
		o.maxSet = n
		rng := rand.New(rand.NewSource(seed))
		classOf := make([]int, n)
		for i := range classOf {
			classOf[i] = rng.Intn(n/2 + 1)
		}
		pm, err := matroid.OnePerClass(classOf)
		if err != nil {
			t.Fatal(err)
		}
		ms := []matroid.Matroid{pm}
		want := bruteMatroidMax(o, n, ms, 0.05)
		for _, f := range []Oracle{o, lazy(o), lazy(&incrWC{wcOracle: *o})} {
			label := fmt.Sprintf("seed %d n=%d %T", seed, n, f)
			got := MatroidMax(f, n, ms, 0.05)
			requireSameSelection(t, label, want, got)
			if got.OracleCalls > want.OracleCalls {
				t.Errorf("%s: %d oracle calls, brute force %d", label, got.OracleCalls, want.OracleCalls)
			}
		}
		for _, x := range want.Set {
			for y := range classOf {
				if y != x && classOf[y] == classOf[x] {
					blocked++
					break
				}
			}
		}
	}
	if blocked < 20 {
		t.Errorf("only %d answer members have a classmate to swap in; the fixture barely exercises swaps", blocked)
	}
}
