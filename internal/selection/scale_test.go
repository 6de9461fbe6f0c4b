package selection

import (
	"math"
	"reflect"
	"testing"

	"freshsource/internal/matroid"
	"freshsource/internal/obs"
)

// requireSameRun asserts two Results from the same algorithm are fully
// identical: set, bit-identical value and exact oracle-call count.
func requireSameRun(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Set, got.Set) {
		t.Errorf("%s: set %v != %v", label, got.Set, want.Set)
	}
	if want.Value != got.Value {
		t.Errorf("%s: value %v != %v (not bit-identical)", label, got.Value, want.Value)
	}
	if want.OracleCalls != got.OracleCalls {
		t.Errorf("%s: oracle calls %d != %d", label, got.OracleCalls, want.OracleCalls)
	}
}

// TestScaleDeterminism pins the CELF contract at a paper-ish candidate
// count on an integer-weighted coverage fixture: every value is an exact
// float, so marginal gains never rise between rounds and LazyGreedy
// returns exactly plain Greedy's selection — same set, bit-identical
// value — at worker counts 1/2/4/8, with speculative batched
// re-evaluation enabled throughout. (Where rounding lifts a gain above
// its stale bound the two may order near-ties differently; see
// LazyGreedy.) The purely lazy path (Speculative(-1)) additionally pins
// OracleCalls: strictly fewer than Greedy's and identical at every worker
// count; speculative runs may only spend more probes than the lazy run.
// -short trims the instance so the -race run stays cheap.
func TestScaleDeterminism(t *testing.T) {
	n := 1200
	if testing.Short() {
		n = 300
	}
	plain := randomWC(n, 17)
	// Cap the selection depth: the interesting regime is many candidates
	// competing for few slots, not ingesting a third of the corpus.
	plain.maxSet = 24
	o := &incrWC{wcOracle: *plain}

	greedy := Greedy(o, n)
	if len(greedy.Set) == 0 {
		t.Fatal("greedy selected nothing")
	}
	lazy := LazyGreedy(o, n)
	requireSameSelection(t, "celf vs greedy", greedy, lazy)
	if lazy.OracleCalls >= greedy.OracleCalls {
		t.Errorf("celf spent %d oracle calls, want fewer than greedy's %d",
			lazy.OracleCalls, greedy.OracleCalls)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		g := Greedy(o, n, Parallel(workers))
		requireSameRun(t, "greedy across workers", greedy, g)
		pure := LazyGreedy(o, n, Parallel(workers), Speculative(-1))
		requireSameRun(t, "purely lazy celf across workers", lazy, pure)
		spec := LazyGreedy(o, n, Parallel(workers), Speculative(2))
		requireSameSelection(t, "speculative celf vs greedy", greedy, spec)
		if spec.OracleCalls < lazy.OracleCalls {
			t.Errorf("workers=%d: speculative celf spent %d oracle calls, below the lazy run's %d",
				workers, spec.OracleCalls, lazy.OracleCalls)
		}
	}
}

// requireSameSelection asserts got selects exactly want's set with a
// bit-identical value (oracle-call counts may differ — the speculative
// CELF contract).
func requireSameSelection(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Set, got.Set) {
		t.Errorf("%s: set %v != %v", label, got.Set, want.Set)
	}
	if want.Value != got.Value {
		t.Errorf("%s: value %v != %v (not bit-identical)", label, got.Value, want.Value)
	}
}

// TestSpeculativeWasteBounded pins the speculation accounting: every
// speculative recompute is either the probe that produced a round's
// adopted argmax or is charged to the wasted counter, so
// speculative − wasted ≤ adds (each adoption redeems at most one
// recompute) and wasted never exceeds speculative.
func TestSpeculativeWasteBounded(t *testing.T) {
	obs.Enable()
	specC := obs.Counter("selection.lazygreedy.speculative_recomputes")
	wasteC := obs.Counter("selection.lazygreedy.speculative_wasted")
	addsC := obs.Counter("selection.lazygreedy.adds")
	spec0, waste0, adds0 := specC.Value(), wasteC.Value(), addsC.Value()

	plain := randomWC(400, 23)
	plain.maxSet = 16
	o := &incrWC{wcOracle: *plain}
	lazy := LazyGreedy(o, 400, Speculative(-1))
	specRun := LazyGreedy(o, 400, Parallel(4), Speculative(4))
	requireSameSelection(t, "speculative celf vs lazy", lazy, specRun)

	spec := specC.Value() - spec0
	waste := wasteC.Value() - waste0
	adds := addsC.Value() - adds0
	if spec == 0 {
		t.Fatal("speculation never engaged (no speculative recomputes recorded)")
	}
	if waste > spec {
		t.Errorf("wasted %d > speculative %d", waste, spec)
	}
	if spec-waste > adds {
		t.Errorf("speculative − wasted = %d exceeds adds %d (more redeemed recomputes than adoptions)",
			spec-waste, adds)
	}
	if specRun.OracleCalls < lazy.OracleCalls {
		t.Errorf("speculative run spent %d calls, below lazy's %d", specRun.OracleCalls, lazy.OracleCalls)
	}
}

// TestSampledNeverWorse is the property the sampled neighborhoods
// guarantee: because the singleton initialization and the delete sweeps
// stay exhaustive, a sampled run can never return a worse objective than
// its start point — the best feasible singleton — no matter how little of
// the add/exchange neighborhood the sample covers.
func TestSampledNeverWorse(t *testing.T) {
	const n = 60
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i / 2
	}
	pm, err := matroid.OnePerClass(classOf)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		o := &incrWC{wcOracle: *randomWC(n, seed)}
		start := math.Inf(-1)
		for x := 0; x < n; x++ {
			if o.Feasible([]int{x}) {
				if v := o.Value([]int{x}); v > start {
					start = v
				}
			}
		}
		for _, sample := range []int{4, 16} {
			ms := MaxSub(o, n, 0.05, Sampled(sample, seed))
			if ms.Value < start {
				t.Errorf("seed=%d sample=%d: sampled MaxSub %v below its start %v",
					seed, sample, ms.Value, start)
			}
			mm := MatroidMax(o, n, []matroid.Matroid{pm}, 0.05, Sampled(sample, seed))
			if mm.Value < start {
				t.Errorf("seed=%d sample=%d: sampled MatroidMax %v below its start %v",
					seed, sample, mm.Value, start)
			}
			// Sampling draws before the sweep fans out, so a sampled run is
			// still deterministic in the worker count.
			requireSameRun(t, "sampled maxsub across workers",
				ms, MaxSub(o, n, 0.05, Sampled(sample, seed), Parallel(4)))
		}
	}
}
