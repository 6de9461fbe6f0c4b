package selection

import (
	"math/rand"
	"reflect"
	"testing"

	"freshsource/internal/matroid"
	"freshsource/internal/stats"
)

// wcOracle is a deterministic weighted-coverage oracle safe for concurrent
// use: value = (sum of weights of covered items) − |set|, computed in
// integers until the final conversion, so any evaluation strategy that gets
// the math right is bit-identical. Feasibility caps the set size.
type wcOracle struct {
	covers [][]int // candidate → covered items (each list duplicate-free)
	weight []int
	maxSet int
}

func (o *wcOracle) Value(set []int) float64 {
	seen := make(map[int]bool)
	tot := 0
	for _, c := range set {
		for _, it := range o.covers[c] {
			if !seen[it] {
				seen[it] = true
				tot += o.weight[it]
			}
		}
	}
	return float64(tot) - float64(len(set))
}

func (o *wcOracle) Feasible(set []int) bool { return len(set) <= o.maxSet }

// incrWC layers an incremental path over wcOracle. The state caches the
// covered-item indicator; ValueAdd re-derives the integer total, so the
// result is exactly Value(set ∪ {x}).
type incrWC struct{ wcOracle }

type wcState struct {
	seen []bool
	tot  int
	size int
}

func (o *incrWC) BeginAdd(set []int) any {
	st := &wcState{seen: make([]bool, len(o.weight)), size: len(set)}
	for _, c := range set {
		for _, it := range o.covers[c] {
			if !st.seen[it] {
				st.seen[it] = true
				st.tot += o.weight[it]
			}
		}
	}
	return st
}

func (o *incrWC) ValueAdd(state any, x int) float64 {
	st := state.(*wcState)
	tot := st.tot
	for _, it := range o.covers[x] {
		if !st.seen[it] {
			tot += o.weight[it]
		}
	}
	return float64(tot) - float64(st.size+1)
}

// lazy reports submodularity on behalf of a fixture oracle, which sends
// Greedy and MaxSub's add moves down the CELF path; incremental probes are
// forwarded when the fixture has them. Every fixture wrapped this way is
// weighted coverage less an additive cost, so submodular.
func lazy(f Oracle) Oracle {
	if io, ok := f.(IncrementalOracle); ok {
		return lazyIncr{io}
	}
	return lazyPlain{f}
}

type lazyPlain struct{ Oracle }

func (lazyPlain) Submodular() bool { return true }

type lazyIncr struct{ IncrementalOracle }

func (lazyIncr) Submodular() bool { return true }

// randomWC builds a seeded random instance with n candidates over a
// 3n-item universe, each covering 1–6 distinct items.
func randomWC(n int, seed int64) *wcOracle {
	rng := rand.New(rand.NewSource(seed))
	items := 3 * n
	o := &wcOracle{
		covers: make([][]int, n),
		weight: make([]int, items),
		maxSet: n/3 + 2,
	}
	for i := range o.weight {
		o.weight[i] = 1 + rng.Intn(9)
	}
	for c := 0; c < n; c++ {
		// At most the universe: a 3-item universe (n = 1) cannot hold 6
		// distinct items.
		k := min(1+rng.Intn(6), items)
		seen := make(map[int]bool)
		for len(o.covers[c]) < k {
			it := rng.Intn(items)
			if !seen[it] {
				seen[it] = true
				o.covers[c] = append(o.covers[c], it)
			}
		}
	}
	return o
}

// runAll runs every algorithm on the oracle and returns the results in a
// fixed order. Each algorithm sees its own CountingOracle (wrapped on
// entry), so OracleCalls are per-run.
func runAll(f Oracle, n int, opts ...Option) []Result {
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i / 2
	}
	pm, err := matroid.OnePerClass(classOf)
	if err != nil {
		panic(err)
	}
	return []Result{
		Greedy(f, n, opts...),
		MaxSub(f, n, 0.05, opts...),
		MatroidMax(f, n, []matroid.Matroid{pm}, 0.05, opts...),
		GRASP(f, n, 3, 5, stats.NewRNG(42), opts...),
		Greedy(lazy(f), n, opts...),
		BudgetedGreedy(f, n, func(i int) float64 { return float64(i%4) + 1 }, opts...),
		MaxSub(lazy(f), n, 0.05, opts...),
		MatroidMax(lazy(f), n, []matroid.Matroid{pm}, 0.05, opts...),
	}
}

// algNames labels runAll's results; the /lazy entries run the same
// algorithm with the oracle reporting submodularity.
var algNames = []string{"Greedy", "MaxSub", "MatroidMax", "GRASP", "Greedy/lazy", "BudgetedGreedy", "MaxSub/lazy", "MatroidMax/lazy"}

// requireIdentical asserts two result slices match exactly: same sets in
// the same order, bit-identical values, identical oracle-call counts.
func requireIdentical(t *testing.T, label string, want, got []Result) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(want[i].Set, got[i].Set) {
			t.Errorf("%s/%s: set %v != %v", label, algNames[i], got[i].Set, want[i].Set)
		}
		if want[i].Value != got[i].Value {
			t.Errorf("%s/%s: value %v != %v (not bit-identical)", label, algNames[i], got[i].Value, want[i].Value)
		}
		if want[i].OracleCalls != got[i].OracleCalls {
			t.Errorf("%s/%s: oracle calls %d != %d", label, algNames[i], got[i].OracleCalls, want[i].OracleCalls)
		}
	}
}

// TestParallelMatchesSequential pins the deterministic-argmax contract:
// fanning candidate sweeps across workers changes nothing — same sets,
// bit-identical values, identical oracle-call counts — because move values
// land at fixed indices and the reduction runs in the sequential scan
// order. That includes the lazy paths: only their seeding sweeps fan out,
// and every stale recompute after one runs one heap pop at a time.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		o := randomWC(24, seed)
		seq := runAll(o, 24)
		for _, workers := range []int{2, 4, 7} {
			par := runAll(o, 24, Parallel(workers))
			requireIdentical(t, "parallel", seq, par)
		}
	}
}

// TestIncrementalMatchesFull pins that an oracle taking the
// IncrementalOracle fast path (cached add-state probes) selects identically
// to the same oracle probed by full evaluations.
func TestIncrementalMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plain := randomWC(24, seed)
		incr := &incrWC{wcOracle: *plain}
		full := runAll(plain, 24)
		fast := runAll(incr, 24)
		requireIdentical(t, "incremental", full, fast)
		// And the two paths compose with parallel sweeps.
		both := runAll(incr, 24, Parallel(4))
		requireIdentical(t, "incremental+parallel", full, both)
	}
}

// TestGRASPParallelRace exercises the parallel sweep engine under load for
// the race detector: many workers racing incremental probes.
func TestGRASPParallelRace(t *testing.T) {
	o := &incrWC{wcOracle: *randomWC(32, 9)}
	res := GRASP(o, 32, 4, 8, stats.NewRNG(7), Parallel(8))
	if len(res.Set) == 0 {
		t.Fatal("GRASP selected nothing")
	}
}
