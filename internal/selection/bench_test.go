package selection

import (
	"context"
	"runtime"
	"testing"

	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/gain"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
)

// The selection benchmarks run the hot path end to end on the real Profit
// oracle over a generated dataset with ≥64 candidates, comparing the
// historical sequential path ("seq": full evaluation per probe) against
// the accelerated ones ("incr": cached-state incremental probes;
// "parallel+incr": plus fanned sweeps — a no-op on single-core runners).
// All variants return identical Results; the benchmark measures wall clock
// only.

type benchEnv struct {
	profit *gain.Profit
	n      int
}

var benchCache *benchEnv

func benchProblem(b *testing.B) *benchEnv {
	b.Helper()
	if benchCache != nil {
		return benchCache
	}
	cfg := dataset.DefaultBLConfig()
	cfg.Locations = 6
	cfg.Categories = 4
	cfg.NumSources = 64
	cfg.Horizon = 160
	cfg.T0 = 100
	cfg.Scale = 0.35
	cfg.Seed = 5
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ticks := []timeline.Tick{110, 125, 140, 155}
	est, err := estimate.NewFit(context.Background(), d.World, d.Sources, d.T0, 155, nil, estimate.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := gain.NewSharedItemCost(est, 10)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gain.NewProfit(est, ticks, gain.Linear{Metric: gain.Coverage}, cm)
	if err != nil {
		b.Fatal(err)
	}
	// A light cost term grows deeper selections, exercising the sweeps on
	// realistic set sizes rather than stopping after a handful of rounds.
	p.CostWeight = 0.3
	benchCache = &benchEnv{profit: p, n: est.NumCandidates()}
	return benchCache
}

// fullOracle hides the incremental methods of the profit oracle, forcing
// the historical full-evaluation path.
type fullOracle struct{ p *gain.Profit }

func (o fullOracle) Value(set []int) float64 { return o.p.Value(set) }
func (o fullOracle) Feasible(set []int) bool { return o.p.Feasible(set) }

// scanOracle forwards the profit oracle's incremental probes but hides its
// submodularity, so Greedy keeps the full scan: the Greedy/* variants
// measure the sweep engine per round, not CELF (BenchmarkScaleCELF does).
type scanOracle struct{ p *gain.Profit }

func (o scanOracle) Value(set []int) float64        { return o.p.Value(set) }
func (o scanOracle) Feasible(set []int) bool        { return o.p.Feasible(set) }
func (o scanOracle) BeginAdd(set []int) any         { return o.p.BeginAdd(set) }
func (o scanOracle) ValueAdd(st any, x int) float64 { return o.p.ValueAdd(st, x) }

// benchVariants returns the oracle factory and options of each variant.
// parallel+incr runs every wide sweep on the pool; its Results, oracle
// calls included, equal incr's, so the pair differs in wall clock only.
func benchVariants(e *benchEnv) []struct {
	name   string
	oracle func() Oracle
	opts   []Option
} {
	return []struct {
		name   string
		oracle func() Oracle
		opts   []Option
	}{
		{"seq", func() Oracle { return fullOracle{e.profit} }, nil},
		// Greedy's incr and parallel+incr are gated pairwise against each
		// other (benchjson -require-faster in bench and bench-check), so
		// they run back-to-back: adjacent windows share the same host-load
		// weather, keeping the comparison about the code.
		{"incr", func() Oracle { return scanOracle{e.profit} }, nil},
		{"parallel+incr", func() Oracle { return scanOracle{e.profit} }, []Option{Parallel(-1)}},
	}
}

func BenchmarkGreedy(b *testing.B) {
	e := benchProblem(b)
	for _, v := range benchVariants(e) {
		b.Run(v.name, func(b *testing.B) {
			// Collected heap at the start of every variant: the variants
			// are compared pairwise (benchjson -require-faster), and GC
			// assist debt inherited from the previous variant's garbage
			// would bias whichever one happens to run later.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := Greedy(v.oracle(), e.n, v.opts...)
				if len(r.Set) == 0 {
					b.Fatal("greedy selected nothing")
				}
			}
		})
	}
}

func BenchmarkGRASP(b *testing.B) {
	e := benchProblem(b)
	for _, v := range benchVariants(e) {
		b.Run(v.name, func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := GRASP(v.oracle(), e.n, 3, 2, stats.NewRNG(17), v.opts...)
				if len(r.Set) == 0 {
					b.Fatal("grasp selected nothing")
				}
			}
		})
	}
}
