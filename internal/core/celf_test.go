package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"freshsource/internal/dataset"
	"freshsource/internal/gain"
	"freshsource/internal/obs"
	"freshsource/internal/selection"
	"freshsource/internal/timeline"
)

// scanOracle is a problem's oracle with its submodularity hidden: Greedy
// and MaxSub then scan every candidate each round, which is the reference
// the lazy (CELF) path must reproduce bit for bit.
type scanOracle struct{ selection.IncrementalOracle }

// spreadTicks lays out n ticks evenly over the evaluation window
// (t0, horizon−1] as serve.SpreadTicks does for n within the window.
func spreadTicks(d *dataset.Dataset, n int) []timeline.Tick {
	span := d.Horizon() - 1 - d.T0
	out := make([]timeline.Tick, n)
	for i := range out {
		out[i] = d.T0 + span*timeline.Tick(i+1)/timeline.Tick(n)
	}
	return out
}

// celfWorld is one world of the differential grid.
type celfWorld struct {
	name    string
	gen     func() (*dataset.Dataset, error)
	divs    [][]int
	gains   []string
	budgets []float64
	ticks   func(d *dataset.Dataset) [][]timeline.Tick
}

func gdeltWorld(seed int64, scale float64, small bool) func() (*dataset.Dataset, error) {
	return func() (*dataset.Dataset, error) {
		cfg := dataset.DefaultGDELTConfig()
		cfg.Scale, cfg.Seed = scale, seed
		if small {
			cfg.Locations, cfg.EventTypes = 4, 2
		}
		return dataset.GenerateGDELT(cfg)
	}
}

// blWorld is a BL-like world over a 4×2 domain with a 60-tick evaluation
// window; the full default window (389 ticks) makes one full scan take
// minutes.
func blWorld(seed int64) func() (*dataset.Dataset, error) {
	return func() (*dataset.Dataset, error) {
		cfg := dataset.DefaultBLConfig()
		cfg.Locations, cfg.Categories, cfg.NumSources = 4, 2, 64
		cfg.Horizon, cfg.T0, cfg.Scale, cfg.Seed = 160, 100, 0.35, seed
		return dataset.GenerateBL(cfg)
	}
}

// queryMissWorld is the serving benchmark's query-miss tenant: 1,000
// GDELT-like sources over a 4×2 domain.
func queryMissWorld(seed int64) func() (*dataset.Dataset, error) {
	return func() (*dataset.Dataset, error) {
		cfg := dataset.DefaultGDELTConfig()
		cfg.Locations, cfg.EventTypes, cfg.NumSources, cfg.Seed = 4, 2, 1000, seed
		return dataset.GenerateGDELT(cfg)
	}
}

func fourSpread(d *dataset.Dataset) [][]timeline.Tick {
	return [][]timeline.Tick{spreadTicks(d, 4)}
}

// celfGrid is the differential grid: GDELT- and BL-like worlds × 4 seeds ×
// divisors {none, [2], [2,3]} × linear-coverage / linear-global-freshness
// / data gains × 5 budgets (360 instances), plus the query-miss tenant
// shape (4 seeds × divisors {none, [2]} × 3 tick sets at its budget).
//
// Each grid world's domain is shrunk to 4×2 points so the 360 full scans
// take seconds (DefaultGDELTConfig's 40×30 domain takes minutes); the
// query-miss tenants and TestCELFNearTie keep real-size worlds. -short
// runs one query-miss tenant only; TestCELFNearTie keeps the near-tie
// world in every run.
func celfGrid() []celfWorld {
	allDivs := [][]int{nil, {2}, {2, 3}}
	allGains := []string{"coverage", "global-freshness", "data"}
	budgets := []float64{0, 0.01, 0.05, 0.2, 1}
	var ws []celfWorld
	if !testing.Short() {
		for seed := int64(1); seed <= 4; seed++ {
			ws = append(ws,
				celfWorld{fmt.Sprintf("gdelt-s%d", seed), gdeltWorld(seed, 0.3, true), allDivs, allGains, budgets, fourSpread},
				celfWorld{fmt.Sprintf("bl-s%d", seed), blWorld(seed), allDivs, allGains, budgets, fourSpread})
		}
	}
	for seed := int64(2014); seed <= 2017; seed++ {
		if testing.Short() && seed != 2014 {
			continue
		}
		ws = append(ws, celfWorld{
			fmt.Sprintf("query-miss-s%d", seed), queryMissWorld(seed),
			[][]int{nil, {2}}, []string{"coverage"}, []float64{0.01},
			func(d *dataset.Dataset) [][]timeline.Tick {
				w := spreadTicks(d, int(d.Horizon()-1-d.T0))
				return [][]timeline.Tick{w[:4], w[2:], {w[0], w[2], w[3], w[5]}}
			},
		})
	}
	return ws
}

func makeGain(name string, d *dataset.Dataset) gain.Function {
	switch name {
	case "coverage":
		return gain.Linear{Metric: gain.Coverage}
	case "global-freshness":
		return gain.Linear{Metric: gain.GlobalFreshness}
	}
	return gain.Data{PerItem: 10, OmegaMax: float64(d.World.NumEntities())}
}

// TestCELFMatchesFullScan is the differential behind routing greedy and
// MaxSub through CELF: on every instance of the grid, greedy, lazygreedy
// and maxsub return the same Set and bit-identical Value as the full scan
// over the same oracle with its submodularity hidden. Under divisors,
// maxsub runs the matroid local search, which has no add engine, so only
// the unconstrained instances compare it. The test also checks the
// assumption the rounding slack δ rests on: no re-probed marginal gain
// rises above its stale bound by more than δ/2¹⁰.
func TestCELFMatchesFullScan(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	instances := 0
	for _, w := range celfGrid() {
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
			for _, ticks := range w.ticks(d) {
				for _, gname := range w.gains {
					for _, budget := range w.budgets {
						prob, err := NewProblem(tr, ticks, makeGain(gname, d), ProblemOptions{Budget: budget})
						if err != nil {
							t.Fatal(err)
						}
						instances++
						label := fmt.Sprintf("%s divs=%v ticks=%v %s budget=%v", w.name, divs, ticks, gname, budget)
						scan := scanOracle{prob.oracle()}
						want := selection.Greedy(scan, n)
						for _, alg := range []Algorithm{Greedy, LazyGreedy} {
							got, err := prob.Solve(alg, SolveOptions{})
							if err != nil {
								t.Fatal(err)
							}
							requireSameAnswer(t, label+" "+string(alg), want, got)
							if got.OracleCalls > want.OracleCalls {
								t.Errorf("%s %s: %d oracle calls, the full scan %d", label, alg, got.OracleCalls, want.OracleCalls)
							}
						}
						if len(divs) == 0 {
							got, err := prob.Solve(MaxSub, SolveOptions{})
							if err != nil {
								t.Fatal(err)
							}
							requireSameAnswer(t, label+" maxsub", selection.MaxSub(scan, n, 0.1), got)
						}
					}
				}
			}
		}
	}
	rise := reg.Histogram("selection.celf.bound_rise")
	t.Logf("%d instances; largest rise %.3g δ over %d rises; %d stale and %d slack-forced re-probes",
		instances, rise.Max(), rise.Count(),
		reg.Counter("selection.celf.stale_recomputes").Value(),
		reg.Counter("selection.celf.slack_recomputes").Value())
	if m := rise.Max(); rise.Count() > 0 && m > 0x1p-10 {
		t.Errorf("a marginal gain rose %.3g δ above its stale bound, want ≤ δ/2¹⁰", m)
	}
}

func requireSameAnswer(t *testing.T, label string, want selection.Result, got *Selection) {
	t.Helper()
	if !reflect.DeepEqual(want.Set, got.Set) || math.Float64bits(want.Value) != math.Float64bits(got.Profit) {
		t.Errorf("%s: %v (%v), the full scan %v (%v)", label, got.Set, got.Profit, want.Set, want.Value)
	}
}

// nearTieSet is the full scan's answer on the near-tie world of DESIGN.md
// §5d (DefaultGDELTConfig at scale 0.3, seed 2, divisors [2,3], 4 spread
// ticks, linear coverage, no budget), and nearTieValue its profit bits.
// Candidate 651's marginal gain is flat in exact arithmetic and wobbles by
// a few ulps across rounds; at round 16 it rises above its stale bound, so
// CELF without a rounding slack adopts 615 first.
var nearTieSet = []int{809, 595, 505, 575, 437, 717, 569, 523, 399, 723, 641, 541, 495, 515, 567, 499, 651, 615, 849}

const nearTieValue = 0x1.129d04fb80b64p-10

// TestCELFNearTie keeps the §5d world as a fixture in every run: greedy
// and lazygreedy must return the full scan's answer, 651 before 615.
func TestCELFNearTie(t *testing.T) {
	d, err := gdeltWorld(2, 0.3, false)()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{FreqDivisors: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(tr, spreadTicks(d, 4), gain.Linear{Metric: gain.Coverage}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := selection.Result{Set: nearTieSet, Value: nearTieValue}
	for _, alg := range []Algorithm{Greedy, LazyGreedy} {
		got, err := prob.Solve(alg, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswer(t, string(alg), want, got)
	}
}
