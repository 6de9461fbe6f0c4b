package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"freshsource/internal/bitset"
	"freshsource/internal/gain"
	"freshsource/internal/selection"
	"freshsource/internal/stats"
)

// refRun counts a reference run's oracle calls as selection.Result does:
// full evaluations and incremental probes alike.
type refRun struct {
	f     selection.IncrementalOracle
	calls int
}

func (r *refRun) value(set []int) float64 {
	r.calls++
	return r.f.Value(set)
}

// refProbe probes additions to one set incrementally.
type refProbe struct {
	r  *refRun
	st any
}

func (r *refRun) begin(set []int) refProbe { return refProbe{r, r.f.BeginAdd(set)} }

func (p refProbe) value(cand []int, x int) float64 {
	p.r.calls++
	if p.st == nil {
		return p.r.f.Value(cand)
	}
	return p.r.f.ValueAdd(p.st, x)
}

func withX(set []int, x int) []int { return append(slices.Clip(set), x) }

// refBudgeted is selection.BudgetedGreedy as it ran with its own loops:
// every ratio round probes every feasible non-member, the best ratio of a
// positive gain wins (zero cost ranks +Inf; the lowest index on ties), and
// a second sweep over the singletons supplies the fallback.
func refBudgeted(f selection.IncrementalOracle, n int, cost func(int) float64) selection.Result {
	r := &refRun{f: f}
	var set []int
	cur := r.value(set)
	taken := make([]bool, n)
	for {
		probe := r.begin(set)
		bestIdx, bestRatio, bestVal := -1, 0.0, cur
		for x := 0; x < n; x++ {
			cand := withX(set, x)
			if taken[x] || !f.Feasible(cand) {
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
		set, cur = withX(set, bestIdx), bestVal
	}
	probe := r.begin(nil)
	single, singleVal := -1, math.Inf(-1)
	for x := 0; x < n; x++ {
		cand := []int{x}
		if !f.Feasible(cand) {
			continue
		}
		if v := probe.value(cand, x); v > singleVal {
			single, singleVal = x, v
		}
	}
	if single >= 0 && singleVal > cur {
		set, cur = []int{single}, singleVal
	}
	return selection.Result{Set: set, Value: cur, OracleCalls: r.calls}
}

// refGRASP is selection.GRASP as it ran with its own loops: each
// construction step probes every feasible non-member and draws from the κ
// best improving ones in the exchange sort's order; each hill-climb round
// evaluates every add, then every drop (never feasibility-gated), then
// every swap, and takes the first strictly best improvement.
func refGRASP(f selection.IncrementalOracle, n, kappa, rounds int, rng *stats.RNG) selection.Result {
	r := &refRun{f: f}
	var best []int
	bestVal := math.Inf(-1)
	for it := 0; it < rounds; it++ {
		set, cur := refConstruct(r, n, kappa, rng)
		set, cur = refHillClimb(r, n, set, cur)
		if cur > bestVal {
			best, bestVal = set, cur
		}
	}
	return selection.Result{Set: best, Value: bestVal, OracleCalls: r.calls}
}

func refConstruct(r *refRun, n, kappa int, rng *stats.RNG) ([]int, float64) {
	var set []int
	member := bitset.New(n)
	cur := r.value(set)
	type cand struct {
		x int
		v float64
	}
	for {
		probe := r.begin(set)
		var cands []cand
		for x := 0; x < n; x++ {
			if s := withX(set, x); !member.Contains(x) && r.f.Feasible(s) {
				if v := probe.value(s, x); v > cur {
					cands = append(cands, cand{x, v})
				}
			}
		}
		if len(cands) == 0 {
			return set, cur
		}
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				if cands[j].v > cands[i].v {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		rcl := cands[:min(kappa, len(cands))]
		pick := rcl[rng.Intn(len(rcl))]
		set, cur = withX(set, pick.x), pick.v
		member.Add(pick.x)
	}
}

func refHillClimb(r *refRun, n int, set []int, cur float64) ([]int, float64) {
	for {
		var next []int
		bestVal := cur
		consider := func(s []int, v float64) {
			if v > bestVal {
				next, bestVal = s, v
			}
		}
		adds := func(base []int) {
			probe := r.begin(base)
			for y := 0; y < n; y++ {
				if s := withX(base, y); !slices.Contains(set, y) && r.f.Feasible(s) {
					consider(s, probe.value(s, y))
				}
			}
		}
		adds(set)
		bases := make([][]int, len(set))
		for i := range set {
			bases[i] = without(set, set[i])
			consider(bases[i], r.value(bases[i]))
		}
		for _, b := range bases {
			adds(b)
		}
		if next == nil {
			return set, cur
		}
		set, cur = next, bestVal
	}
}

// TestMovesMatchReference is the differential behind running GRASP and
// budgeted on the two move kernels: on celfGrid's instances, with and
// without divisors, on linear coverage and on linear accuracy (not
// submodular), GRASP at κ=3, r=2 returns refGRASP's Set, Profit bits and
// oracle calls, and budgeted returns refBudgeted's Set and Profit bits in
// exactly the feasible singletons' count fewer oracle calls. The worlds
// run as parallel subtests.
func TestMovesMatchReference(t *testing.T) {
	gains := []struct {
		name string
		g    gain.Function
	}{
		{"coverage", gain.Linear{Metric: gain.Coverage}},
		{"accuracy", gain.Linear{Metric: gain.Accuracy}},
	}
	for _, w := range celfGrid() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			d, err := w.gen()
			if err != nil {
				t.Fatal(err)
			}
			for _, divs := range w.divs {
				tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{FreqDivisors: divs})
				if err != nil {
					t.Fatal(err)
				}
				n := tr.NumCandidates()
				cost := func(i int) float64 { return tr.Cost.Cost(i) / tr.Cost.Total() }
				for _, ticks := range w.ticks(d) {
					for _, g := range gains {
						for _, budget := range w.budgets {
							prob, err := NewProblem(tr, ticks, g.g, ProblemOptions{Budget: budget})
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("divs=%v ticks=%v %s budget=%v", divs, ticks, g.name, budget)
							want := refGRASP(prob.oracle(), n, 3, 2, stats.NewRNG(1))
							got, err := prob.Solve(GRASP, SolveOptions{Kappa: 3, Rounds: 2, Seed: 1})
							if err != nil {
								t.Fatal(err)
							}
							requireSameAnswer(t, label+" grasp", want, got)
							if got.OracleCalls != want.OracleCalls {
								t.Errorf("%s grasp: %d oracle calls, the reference %d", label, got.OracleCalls, want.OracleCalls)
							}
							want = refBudgeted(prob.oracle(), n, cost)
							if got, err = prob.Solve(Budgeted, SolveOptions{}); err != nil {
								t.Fatal(err)
							}
							requireSameAnswer(t, label+" budgeted", want, got)
							singles := 0
							for x := 0; x < n; x++ {
								if prob.oracle().Feasible([]int{x}) {
									singles++
								}
							}
							if got.OracleCalls != want.OracleCalls-singles {
								t.Errorf("%s budgeted: %d oracle calls, the reference %d less %d singletons",
									label, got.OracleCalls, want.OracleCalls, singles)
							}
						}
					}
				}
			}
		})
	}
}
