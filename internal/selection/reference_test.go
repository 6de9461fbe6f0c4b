package selection

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"freshsource/internal/bitset"
	"freshsource/internal/stats"
)

// refBudgeted is BudgetedGreedy written out as its own sequential scan, as
// it ran before the ratio rounds read the add engine's sweep: every round
// probes every feasible non-member, the best ratio of a positive gain wins
// (zero cost ranks +Inf; the lowest index on ties), and a second sweep
// over the singletons supplies the fallback.
func refBudgeted(f Oracle, n int, cost func(int) float64) Result {
	co := Count(f)
	calls0 := co.Calls()
	var set []int
	cur := co.Value(set)
	taken := make([]bool, n)
	for {
		probe := beginAdds(co, set)
		bestIdx, bestRatio, bestVal := -1, 0.0, cur
		for x := 0; x < n; x++ {
			if taken[x] {
				continue
			}
			cand := with(set, x)
			if !co.Feasible(cand) {
				continue
			}
			v := probe.value(cand, x)
			delta := v - cur
			if delta <= 0 {
				continue
			}
			ratio := math.Inf(1)
			if c := cost(x); c > 0 {
				ratio = delta / c
			}
			if bestIdx < 0 || ratio > bestRatio {
				bestIdx, bestRatio, bestVal = x, ratio, v
			}
		}
		if bestIdx < 0 {
			break
		}
		taken[bestIdx] = true
		set = with(set, bestIdx)
		cur = bestVal
	}
	probe := beginAdds(co, nil)
	single, singleVal := -1, math.Inf(-1)
	for x := 0; x < n; x++ {
		cand := []int{x}
		if !co.Feasible(cand) {
			continue
		}
		if v := probe.value(cand, x); v > singleVal {
			single, singleVal = x, v
		}
	}
	if single >= 0 && singleVal > cur {
		set, cur = []int{single}, singleVal
	}
	return Result{Set: append([]int(nil), set...), Value: cur, OracleCalls: co.Calls() - calls0}
}

// refGRASP is GRASP written out with its own loops, as it ran before its
// construction read the add engine's sweep and its hill climb the exchange
// sweep: each construction step probes every feasible non-member and draws
// from the κ best improving ones (rankByValue's order); each hill-climb
// round evaluates every add, then every drop (never feasibility-gated),
// then every swap, and takes the first strictly best improvement.
func refGRASP(f Oracle, n, kappa, r int, rng *stats.RNG) Result {
	co := Count(f)
	calls0 := co.Calls()
	bestSet, bestVal := []int(nil), math.Inf(-1)
	for it := 0; it < r; it++ {
		set, cur := refConstruct(co, n, kappa, rng)
		set, cur = refHillClimb(co, n, set, cur)
		if cur > bestVal {
			bestSet, bestVal = append([]int(nil), set...), cur
		}
	}
	if math.IsInf(bestVal, -1) {
		bestSet, bestVal = nil, co.Value(nil)
	}
	return Result{Set: append([]int(nil), bestSet...), Value: bestVal, OracleCalls: co.Calls() - calls0}
}

func refConstruct(co *CountingOracle, n, kappa int, rng *stats.RNG) ([]int, float64) {
	var set []int
	member := bitset.New(n)
	cur := co.Value(set)
	for {
		probe := beginAdds(co, set)
		var cands []graspCand
		for x := 0; x < n; x++ {
			if member.Contains(x) {
				continue
			}
			cand := with(set, x)
			if !co.Feasible(cand) {
				continue
			}
			if v := probe.value(cand, x); v > cur {
				cands = append(cands, graspCand{x, v})
			}
		}
		if len(cands) == 0 {
			return set, cur
		}
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

func refHillClimb(co *CountingOracle, n int, set []int, cur float64) ([]int, float64) {
	member := members(n, set)
	for {
		var next []int
		bestVal := cur
		consider := func(cand []int, v float64) {
			if v > bestVal {
				next, bestVal = cand, v
			}
		}
		probe := beginAdds(co, set)
		for x := 0; x < n; x++ {
			if member.Contains(x) {
				continue
			}
			if cand := with(set, x); co.Feasible(cand) {
				consider(cand, probe.value(cand, x))
			}
		}
		bases := make([][]int, len(set))
		for i := range set {
			bases[i] = without(set, set[i])
			consider(bases[i], co.Value(bases[i]))
		}
		for i := range set {
			drop := beginAdds(co, bases[i])
			for y := 0; y < n; y++ {
				if member.Contains(y) {
					continue
				}
				if cand := with(bases[i], y); co.Feasible(cand) {
					consider(cand, drop.value(cand, y))
				}
			}
		}
		if next == nil {
			return set, cur
		}
		set, cur = next, bestVal
		resetMembers(member, set)
	}
}

// feasibleSingletons counts the candidates whose singleton is feasible:
// the probes the budgeted fallback no longer repeats.
func feasibleSingletons(f Oracle, n int) int {
	k := 0
	for x := 0; x < n; x++ {
		if f.Feasible([]int{x}) {
			k++
		}
	}
	return k
}

// sameAnswer reports whether got returns want's Set and Value bits.
func sameAnswer(want, got Result) bool {
	return reflect.DeepEqual(want.Set, got.Set) && math.Float64bits(want.Value) == math.Float64bits(got.Value)
}

// TestMovesMatchReference is the differential behind running budgeted and
// GRASP on the two move kernels: on every instance of the grid — random
// weighted coverage at n ∈ {1, 2, 5, 12, 24, 40}, seeds 1–40, through the
// plain, incremental and lazy oracles, sequentially and at Parallel(3) —
// GRASP at four (κ, r) returns refGRASP's Set, Value bits and oracle calls,
// and budgeted under two cost functions (one all zero) returns
// refBudgeted's Set and Value bits in exactly the feasible singletons'
// count fewer oracle calls. -short runs seeds 1–5.
func TestMovesMatchReference(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 5
	}
	kr := [][2]int{{1, 1}, {2, 3}, {3, 5}, {5, 2}}
	costs := []struct {
		name string
		fn   func(int) float64
	}{
		{"mod4", func(i int) float64 { return float64(i%4) + 1 }},
		{"zero", func(int) float64 { return 0 }},
	}
	runs := 0
	for _, n := range []int{1, 2, 5, 12, 24, 40} {
		for seed := int64(1); seed <= seeds; seed++ {
			plain := randomWC(n, seed)
			oracles := []struct {
				name string
				f    Oracle
			}{
				{"plain", plain},
				{"incr", &incrWC{wcOracle: *plain}},
				{"lazy", lazy(&incrWC{wcOracle: *plain})},
			}
			singles := feasibleSingletons(plain, n)
			for _, c := range kr {
				want := refGRASP(plain, n, c[0], c[1], stats.NewRNG(seed))
				for _, o := range oracles {
					for _, opts := range [][]Option{nil, {Parallel(3)}} {
						got := GRASP(o.f, n, c[0], c[1], stats.NewRNG(seed), opts...)
						runs++
						label := fmt.Sprintf("GRASP n=%d seed=%d κ=%d r=%d %s workers=%d", n, seed, c[0], c[1], o.name, len(opts)*3)
						if !sameAnswer(want, got) || got.OracleCalls != want.OracleCalls {
							t.Errorf("%s: %v (%v, %d calls), the reference %v (%v, %d calls)",
								label, got.Set, got.Value, got.OracleCalls, want.Set, want.Value, want.OracleCalls)
						}
					}
				}
			}
			for _, c := range costs {
				want := refBudgeted(plain, n, c.fn)
				for _, o := range oracles {
					for _, opts := range [][]Option{nil, {Parallel(3)}} {
						got := BudgetedGreedy(o.f, n, c.fn, opts...)
						runs++
						label := fmt.Sprintf("budgeted n=%d seed=%d cost=%s %s workers=%d", n, seed, c.name, o.name, len(opts)*3)
						if !sameAnswer(want, got) || got.OracleCalls != want.OracleCalls-singles {
							t.Errorf("%s: %v (%v, %d calls), the reference %v (%v, %d calls less %d singletons)",
								label, got.Set, got.Value, got.OracleCalls, want.Set, want.Value, want.OracleCalls, singles)
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs", runs)
}
