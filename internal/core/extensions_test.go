package core

import (
	"testing"

	"freshsource/internal/gain"
	"freshsource/internal/selection"
)

func TestLazyGreedyMatchesGreedyEndToEnd(t *testing.T) {
	// On this fixture's coverage objective (monotone submodular minus
	// additive cost) greedy and lazygreedy both run CELF: they must return
	// the full scan's set and bit-identical profit with fewer oracle calls.
	d := getDataset(t)
	tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(tr, futureTicks(d), gain.Linear{Metric: gain.Coverage}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := selection.Greedy(scanOracle{prob.oracle()}, tr.NumCandidates())
	for _, alg := range []Algorithm{Greedy, LazyGreedy} {
		l, err := prob.Solve(alg, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswer(t, string(alg), full, l)
		if l.OracleCalls >= full.OracleCalls {
			t.Errorf("%s used %d oracle calls, the full scan %d", alg, l.OracleCalls, full.OracleCalls)
		}
	}
}

func TestBudgetedSolveUnderTightBudget(t *testing.T) {
	d := getDataset(t)
	tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 0.15
	prob, err := NewProblem(tr, futureTicks(d), gain.Linear{Metric: gain.Coverage}, ProblemOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prob.Solve(Budgeted, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cost := tr.Cost.SetCost(b.Set) / tr.Cost.Total(); cost > budget+1e-9 {
		t.Errorf("budget violated: %v", cost)
	}
	if len(b.Set) == 0 {
		t.Error("budgeted greedy selected nothing")
	}
	// Cost-benefit greedy should match or beat plain greedy under a tight
	// budget on this family of instances; at minimum it must not be
	// drastically worse.
	g, err := prob.Solve(Greedy, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Profit < g.Profit-0.05 {
		t.Errorf("budgeted profit %v far below greedy %v", b.Profit, g.Profit)
	}
}
