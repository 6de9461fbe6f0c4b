package core

// Training must be bit-reproducible run to run: the serving layer caches
// fitted models and promises byte-identical responses for identical
// requests, which only holds if refitting the same snapshot yields the
// exact same floats. This pins the two historical offenders (map-ordered
// point iteration and map-ordered cost accumulation).

import (
	"reflect"
	"testing"

	"freshsource/internal/gain"
)

func TestTrainRunToRunDeterminism(t *testing.T) {
	d := getDataset(t)
	ticks := futureTicks(d)
	var quals, costs, gains []float64
	for rep := 0; rep < 6; rep++ {
		tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{MaxT: ticks[len(ticks)-1]})
		if err != nil {
			t.Fatal(err)
		}
		quals = append(quals, tr.Est.Quality([]int{0, 3, 5}, ticks[2]).Coverage)
		costs = append(costs, tr.Cost.Cost(3)/tr.Cost.Total())
		p, err := NewProblem(tr, ticks, gain.Linear{Metric: gain.Coverage}, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, _, _ := p.Profit().Report([]int{0, 3, 5})
		gains = append(gains, g)
	}
	for i := 1; i < len(quals); i++ {
		if quals[i] != quals[0] {
			t.Errorf("quality rep %d: %.17g != %.17g", i, quals[i], quals[0])
		}
		if costs[i] != costs[0] {
			t.Errorf("cost rep %d: %.17g != %.17g", i, costs[i], costs[0])
		}
		if gains[i] != gains[0] {
			t.Errorf("gain rep %d: %.17g != %.17g", i, gains[i], gains[0])
		}
	}
}

// TestSolveAccelerationInvariant pins the worker-count contract end to end
// on the real float Profit oracle: every worker count selects the same set
// with a bit-identical profit and the same oracle-call count as the
// sequential run — for every algorithm, constrained or not.
func TestSolveAccelerationInvariant(t *testing.T) {
	d := getDataset(t)
	ticks := futureTicks(d)
	for _, variant := range []struct {
		name string
		divs []int
	}{
		{"unconstrained", nil},
		{"one-per-source", []int{2, 4}},
	} {
		tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{
			MaxT:         ticks[len(ticks)-1],
			FreqDivisors: variant.divs,
		})
		if err != nil {
			t.Fatal(err)
		}
		prob, err := NewProblem(tr, ticks, gain.Linear{Metric: gain.Coverage}, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Greedy, MaxSub, GRASP, LazyGreedy, Budgeted} {
			opt := SolveOptions{Kappa: 3, Rounds: 4, Seed: 11}
			base, err := prob.Solve(alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, -1} {
				opt.Workers = workers
				got, err := prob.Solve(alg, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := string(alg) + "/" + variant.name
				if !reflect.DeepEqual(base.Set, got.Set) {
					t.Errorf("%s workers=%d: set %v != %v", label, workers, got.Set, base.Set)
				}
				if base.Profit != got.Profit {
					t.Errorf("%s workers=%d: profit %v != %v (not bit-identical)", label, workers, got.Profit, base.Profit)
				}
				if base.OracleCalls != got.OracleCalls {
					t.Errorf("%s workers=%d: oracle calls %d != %d", label, workers, got.OracleCalls, base.OracleCalls)
				}
			}
		}
	}
}
