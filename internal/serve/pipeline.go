// Package serve is the long-running face of the library: a zero-dependency
// net/http daemon that loads one world/source snapshot at startup, fits the
// Poisson/exponential world models and Kaplan–Meier effectiveness
// distributions once, and answers selection and quality queries over JSON,
// reusing the fitted models and cached evaluation state across requests
// (see Registry). cmd/freshd is the binary; cmd/freshselect shares this
// package's pipeline helpers so a served selection is byte-identical to a
// one-shot CLI run over the same snapshot and options.
package serve

import (
	"fmt"

	"freshsource/internal/dataset"
	"freshsource/internal/gain"
	"freshsource/internal/snapio"
	"freshsource/internal/timeline"
)

// LoadDataset resolves the snapshot a command serves or solves over: a
// persisted dataset directory when load is non-empty, else a generated
// corpus ("bl" or "gdelt") at the given scale and seed.
func LoadDataset(load, kind string, scale float64, seed int64) (*dataset.Dataset, error) {
	if load != "" {
		return snapio.Read(load)
	}
	switch kind {
	case "bl":
		cfg := dataset.DefaultBLConfig()
		cfg.Scale = scale
		cfg.Seed = seed
		return dataset.GenerateBL(cfg)
	case "gdelt":
		cfg := dataset.DefaultGDELTConfig()
		cfg.Scale = scale
		cfg.Seed = seed
		return dataset.GenerateGDELT(cfg)
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", kind)
	}
}

// SpreadTicks returns n future time points of interest evenly spread over
// (t0, horizon−1], the Tf layout of freshselect and the paper's
// experiments. n is clamped to the window's horizon−1−t0 ticks, so the
// points stay distinct and after t0 (the clamped layout is every tick of
// the window); for n within the window the layout is unchanged.
func SpreadTicks(t0, horizon timeline.Tick, n int) []timeline.Tick {
	span := horizon - 1 - t0
	if n > int(span) {
		n = max(int(span), 0)
	}
	out := make([]timeline.Tick, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t0+span*timeline.Tick(i)/timeline.Tick(n))
	}
	return out
}

// ParseMetric resolves a metric name ("coverage", "local-freshness",
// "global-freshness", "accuracy").
func ParseMetric(name string) (gain.Metric, error) {
	switch name {
	case "coverage":
		return gain.Coverage, nil
	case "local-freshness":
		return gain.LocalFreshness, nil
	case "global-freshness":
		return gain.GlobalFreshness, nil
	case "accuracy":
		return gain.Accuracy, nil
	}
	return 0, fmt.Errorf("unknown metric %q", name)
}

// MakeGain builds the named gain function ("linear", "quad", "step",
// "data") over the named metric. numEntities sizes the data gain's Ω bound.
func MakeGain(name, metric string, numEntities int) (gain.Function, error) {
	m, err := ParseMetric(metric)
	if err != nil {
		return nil, err
	}
	switch name {
	case "linear":
		return gain.Linear{Metric: m}, nil
	case "quad":
		return gain.Quad{Metric: m}, nil
	case "step":
		return gain.Step{Metric: m}, nil
	case "data":
		return gain.Data{PerItem: 10, OmegaMax: float64(numEntities)}, nil
	}
	return nil, fmt.Errorf("unknown gain %q", name)
}
