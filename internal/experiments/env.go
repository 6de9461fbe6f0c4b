// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic BL/GDELT counterparts. Each
// experiment is a function from an Env (lazily generated, cached datasets)
// to one or more render.Tables; cmd/experiments prints them and the root
// bench harness runs scaled-down versions.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured notes live
// in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/modelcache"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Config sizes the experiment datasets.
type Config struct {
	BL    dataset.BLConfig
	GDELT dataset.GDELTConfig
	// ScalabilityMultipliers are the BL+ micro-source multipliers of
	// Figure 13a.
	ScalabilityMultipliers []int
	// DomainSizes are the query-domain sizes (#points) of Figure 13b.
	DomainSizes []int
	// GraspConfigs are the (κ, r) pairs evaluated for GRASP.
	GraspConfigs [][2]int
	// Epsilon is the local-search slack.
	Epsilon float64
	// Seed drives every randomized component.
	Seed int64
	// Workers fans each selection run's candidate sweeps across this many
	// goroutines (0 = sequential, negative = all cores); results are
	// identical at any setting.
	Workers int
	// FitWorkers bounds the model-fitting pool of every training run
	// (0 = GOMAXPROCS, 1 = sequential); fitted models are byte-identical
	// at any setting.
	FitWorkers int
	// ModelCacheDir, when non-empty, persists fitted models to disk so
	// repeated experiment runs over the same datasets skip refitting.
	ModelCacheDir string
}

// Default is the full-size configuration used by cmd/experiments.
func Default() Config {
	return Config{
		BL:                     dataset.DefaultBLConfig(),
		GDELT:                  dataset.DefaultGDELTConfig(),
		ScalabilityMultipliers: []int{0, 1, 2, 5, 10, 20, 50, 100, 200},
		DomainSizes:            []int{1, 50, 100, 200, 300, 400, 500},
		GraspConfigs:           [][2]int{{1, 1}, {2, 10}, {5, 20}, {10, 100}},
		Epsilon:                0.1,
		Seed:                   99,
	}
}

// Quick is the scaled-down configuration used by the root benches and the
// package tests: same structure, roughly 30× less data.
func Quick() Config {
	cfg := Default()
	cfg.BL.Locations = 12
	cfg.BL.Categories = 6
	cfg.BL.NumSources = 16
	cfg.BL.Horizon = 260
	cfg.BL.T0 = 140
	cfg.BL.Scale = 0.35
	cfg.GDELT.Locations = 14
	cfg.GDELT.EventTypes = 10
	cfg.GDELT.NumSources = 60
	cfg.GDELT.Scale = 0.5
	cfg.ScalabilityMultipliers = []int{0, 1, 2, 5}
	cfg.DomainSizes = []int{1, 20, 50}
	cfg.GraspConfigs = [][2]int{{1, 1}, {2, 10}, {5, 20}}
	return cfg
}

// Env carries lazily built, cached datasets shared across experiments.
type Env struct {
	Cfg   Config
	bl    *dataset.Dataset
	gdelt *dataset.Dataset
	mc    *modelcache.Cache
	mcErr error
}

// NewEnv returns an empty environment for the configuration.
func NewEnv(cfg Config) *Env { return &Env{Cfg: cfg} }

// Train fits (or cache-loads) models for a dataset, applying the
// environment's fit-worker and model-cache settings on top of opt. Every
// experiment trains through here so a single -fit.workers / -modelcache
// flag reaches all of them.
func (e *Env) Train(d *dataset.Dataset, opt core.TrainOptions) (*core.Trained, error) {
	opt.FitWorkers = e.Cfg.FitWorkers
	if e.Cfg.ModelCacheDir == "" {
		return core.Train(d.World, d.Sources, d.T0, opt)
	}
	if e.mc == nil && e.mcErr == nil {
		e.mc, e.mcErr = modelcache.New(e.Cfg.ModelCacheDir)
	}
	if e.mcErr != nil {
		return nil, e.mcErr
	}
	tr, _, err := e.mc.LoadOrFit(context.Background(), d, opt)
	return tr, err
}

// BL returns the (cached) BL-like dataset.
func (e *Env) BL() (*dataset.Dataset, error) {
	if e.bl == nil {
		d, err := dataset.GenerateBL(e.Cfg.BL)
		if err != nil {
			return nil, err
		}
		e.bl = d
	}
	return e.bl, nil
}

// GDELT returns the (cached) GDELT-like dataset.
func (e *Env) GDELT() (*dataset.Dataset, error) {
	if e.gdelt == nil {
		d, err := dataset.GenerateGDELT(e.Cfg.GDELT)
		if err != nil {
			return nil, err
		}
		e.gdelt = d
	}
	return e.gdelt, nil
}

// futurePoints returns n evenly spaced ticks in (t0, horizon).
func futurePoints(t0, horizon timeline.Tick, n int) []timeline.Tick {
	if n < 1 {
		return nil
	}
	span := horizon - 1 - t0
	out := make([]timeline.Tick, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t0+span*timeline.Tick(i)/timeline.Tick(n))
	}
	return out
}

// largestPoints returns the k domain points with the most live entities at
// tick t, descending.
func largestPoints(w *world.World, t timeline.Tick, k int) []world.DomainPoint {
	pts := w.Points()
	sort.Slice(pts, func(i, j int) bool {
		ci := w.AliveCount(t, []world.DomainPoint{pts[i]})
		cj := w.AliveCount(t, []world.DomainPoint{pts[j]})
		if ci != cj {
			return ci > cj
		}
		if pts[i].Location != pts[j].Location {
			return pts[i].Location < pts[j].Location
		}
		return pts[i].Category < pts[j].Category
	})
	if k > len(pts) {
		k = len(pts)
	}
	return pts[:k]
}

// pointsOfLocation returns every domain point of one location.
func pointsOfLocation(w *world.World, loc int) []world.DomainPoint {
	var out []world.DomainPoint
	for _, p := range w.Points() {
		if p.Location == loc {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

// fmtF renders a float with 4 significant decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }
