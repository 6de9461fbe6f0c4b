package estimate

import (
	"context"
	"math"
	"testing"

	"freshsource/internal/source"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// TestNoAlignmentOvershootsForSlowSources verifies the Eq. 8 ablation: for
// a source with a long update interval, ignoring schedule alignment
// predicts strictly higher early coverage of fresh appearances (changes
// surface "immediately" instead of at the next scheduled update).
func TestNoAlignmentOvershootsForSlowSources(t *testing.T) {
	w := testWorld(t)
	sp := defaultSpec(w.Points(), 0.9)
	sp.UpdateInterval = 21
	src := mkSource(t, w, 0, sp, 31)
	e, err := NewFit(context.Background(), w, []*source.Source{src}, 300, 440, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aligned := e.QualityMulti([]int{0}, []timeline.Tick{320, 360, 400})
	e.NoAlignment = true
	unaligned := e.QualityMulti([]int{0}, []timeline.Tick{320, 360, 400})
	anyHigher := false
	for i := range aligned {
		if unaligned[i].Coverage < aligned[i].Coverage-1e-12 {
			t.Errorf("tick %d: no-alignment coverage %v below aligned %v", i, unaligned[i].Coverage, aligned[i].Coverage)
		}
		if unaligned[i].Coverage > aligned[i].Coverage+1e-9 {
			anyHigher = true
		}
	}
	if !anyHigher {
		t.Error("no-alignment should strictly overshoot somewhere for a 21-tick schedule")
	}
}

// TestSetLinearOmegaMatchesEq14 verifies the world-size ablation: the
// linear mode reproduces the paper-literal Eq. 14 drift and toggling back
// restores the default tables exactly.
func TestSetLinearOmegaMatchesEq14(t *testing.T) {
	w := testWorld(t)
	src := mkSource(t, w, 0, defaultSpec(w.Points(), 0.9), 32)
	e, err := NewFit(context.Background(), w, []*source.Source{src}, 300, 440, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tk := timeline.Tick(400)
	base := e.Quality([]int{0}, tk)

	e.SetLinearOmega(true)
	lin := e.Quality([]int{0}, tk)
	var wantOmega float64
	for j := range e.Points() {
		wantOmega += e.Model(j).ExpectedOmegaLinear(tk)
	}
	if math.Abs(lin.ExpectedOmega-wantOmega) > 1e-9 {
		t.Errorf("linear omega %v != Eq.14 sum %v", lin.ExpectedOmega, wantOmega)
	}

	// Idempotent set, then restore.
	e.SetLinearOmega(true)
	e.SetLinearOmega(false)
	back := e.Quality([]int{0}, tk)
	if back != base {
		t.Errorf("toggling linear omega did not restore: %+v vs %+v", back, base)
	}
}

// TestLinearOmegaWorseOnNonStationaryWorld: on a shrinking population the
// literal Eq. 14 must predict the world size worse than the ODE form.
func TestLinearOmegaWorseOnNonStationaryWorld(t *testing.T) {
	// Population starts far above steady state (600 vs λi/γd = 100).
	w, err := world.Generate(world.Config{
		Subdomains: []world.SubdomainSpec{{
			Point:           world.DomainPoint{Location: 0, Category: 0},
			InitialEntities: 600, LambdaAppear: 1, GammaDisappear: 0.01, GammaUpdate: 0.01,
		}},
		Horizon: 500,
		Seed:    33,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitWorldPoint(w, 250, world.DomainPoint{Location: 0, Category: 0})
	if err != nil {
		t.Fatal(err)
	}
	tk := timeline.Tick(480)
	actual := float64(w.AliveCount(tk, nil))
	odeErr := math.Abs(m.ExpectedOmega(tk) - actual)
	linErr := math.Abs(m.ExpectedOmegaLinear(tk) - actual)
	if odeErr >= linErr {
		t.Errorf("ODE err %v not better than linear err %v (actual %v, ode %v, lin %v)",
			odeErr, linErr, actual, m.ExpectedOmega(tk), m.ExpectedOmegaLinear(tk))
	}
}
