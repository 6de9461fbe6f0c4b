package selection

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/gain"
	"freshsource/internal/matroid"
	"freshsource/internal/timeline"
)

// The Scale bench family measures selection at paper-regime candidate
// counts on the GDELT-like generator: 64 and 1k candidates in every run,
// plus the full 15,275-source corpus of the paper when BENCH_SCALE=full
// (the Makefile's bench targets plumb the knob through). The fixtures keep
// the domain small (4 locations × 2 event types) so the entity universe
// stays a handful of bitset words and the benchmarks isolate what actually
// grows with the corpus — the candidate sweeps — rather than re-measuring
// per-probe signature width, which BenchmarkQualityMultiAdd already covers.
//
// All sub-benchmarks report allocations: BenchmarkScaleProbe pins the
// zero-alloc steady-state probe, and ScaleCELF's allocs/op would surface a
// regression to per-round scratch churn.

type scaleEnv struct {
	profit *gain.Profit
	n      int
	// ms holds the one-version-per-source matroid when the fixture has
	// frequency variants.
	ms []matroid.Matroid
}

var scaleCache = map[string]*scaleEnv{}

var scaleSizes = []struct {
	label   string
	sources int
	full    bool // only run when BENCH_SCALE=full
}{
	{"64", 64, false},
	{"1k", 1000, false},
	{"15k", 15275, true},
}

// scaleProblem builds (once per size and divisor list, cached across
// benchmarks) a profit oracle over a GDELT-like corpus with the requested
// source count, plus one candidate per source and divisor.
func scaleProblem(b *testing.B, sources int, divisors ...int) *scaleEnv {
	b.Helper()
	key := fmt.Sprint(sources, divisors)
	if e, ok := scaleCache[key]; ok {
		return e
	}
	cfg := dataset.GDELTConfig{
		Locations:  4,
		EventTypes: 2,
		NumSources: sources,
		Horizon:    22,
		T0:         15,
		Scale:      0.5,
		Seed:       2014,
	}
	d, err := dataset.GenerateGDELT(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ticks := []timeline.Tick{17, 19, 21}
	est, err := estimate.NewFit(context.Background(), d.World, d.Sources, d.T0, 21, nil, estimate.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e := &scaleEnv{}
	if len(divisors) > 0 {
		if est, err = est.WithFrequencyVariants(divisors); err != nil {
			b.Fatal(err)
		}
		classOf := make([]int, est.NumCandidates())
		for i := range classOf {
			classOf[i] = est.Candidate(i).SourceIndex
		}
		pm, err := matroid.OnePerClass(classOf)
		if err != nil {
			b.Fatal(err)
		}
		e.ms = []matroid.Matroid{pm}
	}
	cm, err := gain.NewSharedItemCost(est, 10)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gain.NewProfit(est, ticks, gain.Linear{Metric: gain.Coverage}, cm)
	if err != nil {
		b.Fatal(err)
	}
	// The cost term penalizes redundant picks, and the budget bounds the
	// selection to a few dozen sources regardless of corpus size — the
	// paper's regime is a small acquisition set chosen from a huge
	// candidate pool, not ingesting the pool. (Normalized per-item cost is
	// ~1/n, so a bare CostWeight would stop a 64-source solve early yet
	// let a 15k-source solve run thousands of rounds deep.)
	p.CostWeight = 0.3
	p.Budget = 32 / float64(sources)
	e.profit, e.n = p, est.NumCandidates()
	scaleCache[key] = e
	return e
}

func skipUnlessFull(b *testing.B) {
	b.Helper()
	if os.Getenv("BENCH_SCALE") != "full" {
		b.Skip("15k corpus benchmarks run with BENCH_SCALE=full")
	}
}

// BenchmarkScaleCELF runs the full lazy-greedy solve end to end: Greedy
// on the profit oracle, which reports submodularity and so probes lazily.
// The paper target: the 15k-candidate solve completes in under a second.
// The seq variant is the single-threaded solve; parallel fans the
// singleton sweep across all cores through the persistent sweep pool, and
// the stale recomputes after it run one heap pop at a time either way.
// make bench and bench-check, pinned at GOMAXPROCS=2, gate parallel
// strictly faster than seq at 1k and 15k via benchjson -require-faster.
func BenchmarkScaleCELF(b *testing.B) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"seq", nil},
		{"parallel", []Option{Parallel(-1)}},
	}
	for _, s := range scaleSizes {
		for _, v := range variants {
			b.Run(s.label+"/"+v.name, func(b *testing.B) {
				if s.full {
					skipUnlessFull(b)
				}
				e := scaleProblem(b, s.sources)
				// Start from a collected heap so the later-listed variant
				// doesn't inherit the earlier one's garbage (GC assist time
				// would bias an otherwise identical pair).
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := Greedy(e.profit, e.n, v.opts...)
					if len(r.Set) == 0 {
						b.Fatal("celf selected nothing")
					}
				}
			})
		}
	}
}

// BenchmarkScaleMatroid runs the matroid search end to end, the solve
// behind maxsub with divisors: MatroidMax with divisors [2], so two
// candidates per source, under the one-version-per-source matroid. The
// profit oracle reports submodularity, so the exchanges that add probe
// lazily. 64 and 1k sources only.
func BenchmarkScaleMatroid(b *testing.B) {
	for _, s := range scaleSizes {
		if s.full {
			continue
		}
		b.Run(s.label, func(b *testing.B) {
			e := scaleProblem(b, s.sources, 2)
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := MatroidMax(e.profit, e.n, e.ms, 0.1)
				if len(r.Set) == 0 {
					b.Fatal("matroid search selected nothing")
				}
			}
		})
	}
}

var scaleProbeSink float64

// BenchmarkScaleProbe measures one steady-state incremental probe — the
// operation CELF and the local searches issue tens of thousands of times
// per solve — against a warmed set state. Targets: under 2µs and zero
// allocations per probe.
func BenchmarkScaleProbe(b *testing.B) {
	for _, s := range scaleSizes {
		b.Run(s.label, func(b *testing.B) {
			if s.full {
				skipUnlessFull(b)
			}
			e := scaleProblem(b, s.sources)
			set := []int{0, 1, 2, 3}
			st := e.profit.BeginAdd(set)
			// Warm the per-tick miss tables so iterations measure the
			// steady state rather than the one-time lazy build.
			scaleProbeSink = e.profit.ValueAdd(st, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scaleProbeSink = e.profit.ValueAdd(st, 4+i%(e.n-4))
			}
		})
	}
}
