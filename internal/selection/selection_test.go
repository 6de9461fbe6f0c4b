package selection

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"freshsource/internal/matroid"
	"freshsource/internal/stats"
)

// coverOracle is a weighted-coverage test oracle: each candidate covers a
// set of items with given weights, f(S) = Σ weight(covered items) − Σ cost.
// Weighted coverage is monotone submodular, so optima are easy to reason
// about.
type coverOracle struct {
	covers  [][]int
	weights []float64
	costs   []float64
	budget  float64
	calls   int
}

func (o *coverOracle) Value(set []int) float64 {
	o.calls++
	covered := map[int]bool{}
	var cost float64
	for _, c := range set {
		for _, it := range o.covers[c] {
			covered[it] = true
		}
		cost += o.costs[c]
	}
	var g float64
	for it := range covered {
		g += o.weights[it]
	}
	return g - cost
}

func (o *coverOracle) Feasible(set []int) bool {
	if o.budget <= 0 {
		return true
	}
	var cost float64
	for _, c := range set {
		cost += o.costs[c]
	}
	return cost <= o.budget
}

func (o *coverOracle) Calls() int { return o.calls }

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalSets(a, b []int) bool {
	a, b = sorted(a), sorted(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// simpleOracle: 3 candidates, candidate 2 covers everything but costs a lot.
func simpleOracle() *coverOracle {
	return &coverOracle{
		covers:  [][]int{{0, 1}, {2, 3}, {0, 1, 2, 3}},
		weights: []float64{1, 1, 1, 1},
		costs:   []float64{0.5, 0.5, 3.5},
	}
}

func TestGreedyPicksOptimal(t *testing.T) {
	o := simpleOracle()
	r := Greedy(o, 3)
	// Best: {0,1} with value 4-1 = 3; candidate 2 alone gives 0.5.
	if !equalSets(r.Set, []int{0, 1}) {
		t.Errorf("Greedy set = %v", r.Set)
	}
	if math.Abs(r.Value-3) > 1e-12 {
		t.Errorf("Greedy value = %v", r.Value)
	}
	if r.OracleCalls <= 0 {
		t.Error("oracle calls not counted")
	}
	if r.Duration < 0 {
		t.Error("negative duration")
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	o := simpleOracle()
	o.budget = 0.5 // only one cheap candidate fits
	r := Greedy(o, 3)
	if len(r.Set) != 1 {
		t.Errorf("set = %v", r.Set)
	}
	if !o.Feasible(r.Set) {
		t.Error("infeasible selection")
	}
}

func TestGreedyEmptyGround(t *testing.T) {
	o := simpleOracle()
	r := Greedy(o, 0)
	if len(r.Set) != 0 {
		t.Errorf("set = %v", r.Set)
	}
}

// greedyTrap: an instance where Greedy gets stuck at a local optimum but a
// delete move (MaxSub) escapes. Candidate 0 overlaps both 1 and 2.
func greedyTrap() *coverOracle {
	return &coverOracle{
		covers:  [][]int{{0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 6, 7}},
		weights: []float64{1, 1, 1, 1, 1, 1, 1, 1},
		costs:   []float64{1.0, 1.2, 1.2},
	}
}

func TestMaxSubBeatsGreedyOnTrap(t *testing.T) {
	// Greedy: picks 0 first (4−1=3), then adding 1 (6−2.2=3.8), then 2
	// (8−3.4=4.6). All three: value 4.6. Optimal is {1,2}: 8−2.4=5.6.
	g := Greedy(greedyTrap(), 3)
	m := MaxSub(greedyTrap(), 3, 0.1)
	if m.Value < 5.6-1e-9 {
		t.Errorf("MaxSub value = %v, want 5.6 (set %v)", m.Value, m.Set)
	}
	if g.Value >= m.Value {
		t.Errorf("trap did not trap Greedy: greedy %v, maxsub %v", g.Value, m.Value)
	}
	if !equalSets(m.Set, []int{1, 2}) {
		t.Errorf("MaxSub set = %v", m.Set)
	}
}

func TestMaxSubEmptyGround(t *testing.T) {
	o := simpleOracle()
	r := MaxSub(o, 0, 0.1)
	if len(r.Set) != 0 {
		t.Errorf("set = %v", r.Set)
	}
}

func TestMaxSubComplementConsidered(t *testing.T) {
	// An oracle where the complement of the local optimum wins: f counts
	// items covered only by the "other" candidates. Construct: candidate 0
	// great alone; {1,2} jointly much better but each alone is weak and the
	// threshold blocks single steps.
	o := &coverOracle{
		covers:  [][]int{{0}, {1}, {2}},
		weights: []float64{1, 0.9, 0.9},
		costs:   []float64{0, 0, 0},
	}
	r := MaxSub(o, 3, 0.5)
	// With everything free, adds keep improving: all three selected.
	if len(r.Set) != 3 {
		t.Errorf("set = %v", r.Set)
	}
}

func TestMaxSubFeasibility(t *testing.T) {
	o := simpleOracle()
	o.budget = 1.0
	r := MaxSub(o, 3, 0.1)
	if !o.Feasible(r.Set) {
		t.Errorf("infeasible MaxSub set %v", r.Set)
	}
}

func TestMatroidLocalSearchOnePerClass(t *testing.T) {
	// Two sources, two "frequency versions" each. Version quality differs;
	// constraint: one version per source.
	// Candidates: 0=s0-full, 1=s0-half, 2=s1-full, 3=s1-half.
	o := &coverOracle{
		covers:  [][]int{{0, 1, 2}, {0, 1}, {3, 4, 5}, {3, 4}},
		weights: []float64{1, 1, 1, 1, 1, 1},
		costs:   []float64{1.1, 0.4, 1.1, 0.4},
	}
	p, err := matroid.OnePerClass([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	ms := []matroid.Matroid{p}
	ground := []int{0, 1, 2, 3}
	r := MatroidLocalSearch(o, ground, ms, 0.1)
	if !p.Independent(r.Set) {
		t.Fatalf("solution %v violates the matroid", r.Set)
	}
	// Optimal respecting the constraint: {1, 3} = 4 − 0.8 = 3.2
	// vs {0,2} = 6 − 2.2 = 3.8. So {0,2} wins.
	if !equalSets(r.Set, []int{0, 2}) {
		t.Errorf("set = %v (value %v)", r.Set, r.Value)
	}
}

func TestMatroidLocalSearchExchanges(t *testing.T) {
	// Force an exchange: start lands on the cheap version, swap to the
	// expensive one must happen via exchange (class full).
	o := &coverOracle{
		covers:  [][]int{{0}, {0, 1, 2, 3}},
		weights: []float64{1, 1, 1, 1},
		costs:   []float64{0.1, 0.5},
	}
	p, _ := matroid.OnePerClass([]int{0, 0})
	r := MatroidLocalSearch(o, []int{0, 1}, []matroid.Matroid{p}, 0.1)
	if !equalSets(r.Set, []int{1}) {
		t.Errorf("set = %v, want {1} via exchange", r.Set)
	}
}

func TestMatroidMax(t *testing.T) {
	o := &coverOracle{
		covers:  [][]int{{0, 1}, {0}, {2, 3}, {2}},
		weights: []float64{1, 1, 1, 1},
		costs:   []float64{0.2, 0.1, 0.2, 0.1},
	}
	p, _ := matroid.OnePerClass([]int{0, 0, 1, 1})
	r := MatroidMax(o, 4, []matroid.Matroid{p}, 0.1)
	if !p.Independent(r.Set) {
		t.Fatalf("solution %v violates matroid", r.Set)
	}
	if !equalSets(r.Set, []int{0, 2}) {
		t.Errorf("set = %v, want {0,2}", r.Set)
	}
	if math.Abs(r.Value-3.6) > 1e-9 {
		t.Errorf("value = %v", r.Value)
	}
}

func TestMatroidEmptyGround(t *testing.T) {
	o := simpleOracle()
	p, _ := matroid.OnePerClass([]int{0, 0, 1})
	r := MatroidLocalSearch(o, nil, []matroid.Matroid{p}, 0.1)
	if len(r.Set) != 0 {
		t.Errorf("set = %v", r.Set)
	}
}

func TestGRASPFindsOptimumOnTrap(t *testing.T) {
	rng := stats.NewRNG(7)
	r := GRASP(greedyTrap(), 3, 2, 20, rng)
	if r.Value < 5.6-1e-9 {
		t.Errorf("GRASP value = %v (set %v), want 5.6", r.Value, r.Set)
	}
}

func TestGRASPHillClimbDegenerate(t *testing.T) {
	// (κ=1, r=1) is deterministic hill climbing; on the simple instance it
	// must find {0,1} via swaps even after greedy construction.
	rng := stats.NewRNG(1)
	r := GRASP(simpleOracle(), 3, 1, 1, rng)
	if !equalSets(r.Set, []int{0, 1}) {
		t.Errorf("set = %v", r.Set)
	}
}

// TestGRASPRankOrder pins the order of GRASP's restricted candidate list:
// value descending, with ties in the order the exchange sort leaves them,
// which is not index order.
func TestGRASPRankOrder(t *testing.T) {
	cands := []graspCand{{0, 1}, {1, 1}, {2, 2}}
	rankByValue(cands)
	var got []int
	for _, c := range cands {
		got = append(got, c.x)
	}
	if want := []int{2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("values 1, 1, 2 at indices 0, 1, 2 rank as %v, want %v", got, want)
	}
}

func TestGRASPRespectsBudget(t *testing.T) {
	o := simpleOracle()
	o.budget = 1.0
	r := GRASP(o, 3, 2, 10, stats.NewRNG(3))
	if !o.Feasible(r.Set) {
		t.Errorf("infeasible GRASP set %v", r.Set)
	}
}

func TestOracleCallAccountingMonotonic(t *testing.T) {
	o := simpleOracle()
	r1 := Greedy(o, 3)
	r2 := MaxSub(o, 3, 0.1)
	if r1.OracleCalls <= 0 || r2.OracleCalls <= 0 {
		t.Error("call accounting broken")
	}
	// MaxSub explores at least as much as Greedy on this instance.
	if r2.OracleCalls < len(r2.Set) {
		t.Error("implausibly few calls")
	}
}

func TestAllAlgorithmsAgreeOnTrivial(t *testing.T) {
	// One candidate, positive profit: everyone must select it.
	o := &coverOracle{covers: [][]int{{0}}, weights: []float64{1}, costs: []float64{0.1}}
	p, _ := matroid.OnePerClass([]int{0})
	ms := []matroid.Matroid{p}
	for name, r := range map[string]Result{
		"greedy":  Greedy(o, 1),
		"maxsub":  MaxSub(o, 1, 0.1),
		"matroid": MatroidMax(o, 1, ms, 0.1),
		"grasp":   GRASP(o, 1, 1, 2, stats.NewRNG(5)),
	} {
		if !equalSets(r.Set, []int{0}) {
			t.Errorf("%s selected %v", name, r.Set)
		}
		if math.Abs(r.Value-0.9) > 1e-9 {
			t.Errorf("%s value = %v", name, r.Value)
		}
	}
}
