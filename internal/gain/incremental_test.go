package gain

import (
	"context"
	"math"
	"slices"
	"testing"

	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/timeline"
)

// TestProfitValueAddMatchesValue pins the incremental-oracle contract:
// ValueAdd(BeginAdd(set), x) is bit-identical to Value(set ∪ {x}) — not
// approximately equal — and counts exactly one oracle call (BeginAdd counts
// none), so OracleCalls stays identical across the two paths.
func TestProfitValueAddMatchesValue(t *testing.T) {
	e, _ := buildFixture(t)
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	ticks := []timeline.Tick{210, 230, 250}
	p, err := NewProfit(e, ticks, Quad{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}

	n := e.NumCandidates()
	sets := [][]int{nil, {0}, {1}, {0, 2}, {2, 1}}
	for _, set := range sets {
		member := make(map[int]bool)
		for _, i := range set {
			member[i] = true
		}
		p.ResetCalls()
		st := p.BeginAdd(set)
		if st == nil {
			t.Fatalf("BeginAdd(%v) declined", set)
		}
		if p.Calls() != 0 {
			t.Errorf("BeginAdd(%v) counted %d calls, want 0", set, p.Calls())
		}
		for x := 0; x < n; x++ {
			if member[x] {
				continue
			}
			got := p.ValueAdd(st, x)
			want := p.Value(append(append([]int(nil), set...), x))
			if got != want {
				t.Errorf("ValueAdd(%v, %d) = %v, Value = %v (not bit-identical)", set, x, got, want)
			}
		}
	}

	// Call accounting: one ValueAdd counts like one Value.
	p.ResetCalls()
	st := p.BeginAdd([]int{0})
	p.ValueAdd(st, 1)
	if p.Calls() != 1 {
		t.Errorf("ValueAdd counted %d calls, want 1", p.Calls())
	}
}

// TestProfitValueAddZeroAlloc pins the steady-state probe: once a state's
// miss tables are warm, ValueAdd runs entirely on pooled scratch and
// allocates nothing per probe.
func TestProfitValueAddZeroAlloc(t *testing.T) {
	e, _ := buildFixture(t)
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfit(e, []timeline.Tick{210, 230, 250}, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	st := p.BeginAdd([]int{0})
	p.ValueAdd(st, 1) // warm the per-tick miss tables and the probe pool
	if raceEnabled {
		t.Skip("race runtime allocates for its own bookkeeping")
	}
	if avg := testing.AllocsPerRun(200, func() { p.ValueAdd(st, 1) }); avg != 0 {
		t.Errorf("warm ValueAdd allocates %v per run, want 0", avg)
	}
}

// TestProfitValueAddInertCandidates: on a GDELT-like world where many
// sources hold nothing at T0, ValueAdd short-cuts each inert candidate to
// the set's own value. Every probe, inert or not, stays bit-identical to
// the full evaluation.
func TestProfitValueAddInertCandidates(t *testing.T) {
	cfg := dataset.DefaultGDELTConfig()
	cfg.Locations, cfg.EventTypes, cfg.NumSources = 4, 2, 120
	d, err := dataset.GenerateGDELT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := estimate.NewFit(context.Background(), d.World, d.Sources, d.T0, d.Horizon()-1, nil, estimate.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfit(e, []timeline.Tick{d.T0 + 1, d.T0 + 4, d.Horizon() - 1}, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumCandidates()
	inert := 0
	for x := 0; x < n; x++ {
		if e.Inert(x) {
			inert++
		}
	}
	if inert == 0 || inert == n {
		t.Fatalf("%d of %d candidates inert; the fixture needs both kinds", inert, n)
	}
	for _, set := range [][]int{nil, {5}, {5, 17, 3}} {
		st := p.BeginAdd(set)
		for x := 0; x < n; x++ {
			if slices.Contains(set, x) {
				continue
			}
			if got, want := p.ValueAdd(st, x), p.Value(append(slices.Clone(set), x)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("ValueAdd(%v, %d) = %v, Value = %v (inert %v)", set, x, got, want, e.Inert(x))
			}
		}
	}
}
