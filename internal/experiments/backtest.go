package experiments

import (
	"context"
	"fmt"

	"freshsource/internal/estimate"
	"freshsource/internal/metrics"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
)

// Backtest is a walk-forward validation of the statistical models (beyond
// the paper's single train/test split): train at several cut points with
// growing history, predict the coverage of the three largest sources over
// the following 60 ticks, and report the error as a function of training
// length. It quantifies the paper's Section 2.3 remark that highly dynamic
// sources give more training points and hence more accurate models.
func Backtest(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	top := d.LargestSources(3)
	horizon := d.Horizon()

	// Cut points from 15% to 75% of the window.
	var cuts []timeline.Tick
	for _, f := range []float64{0.15, 0.3, 0.45, 0.6, 0.75} {
		cut := timeline.Tick(float64(horizon) * f)
		if cut+61 < horizon && cut > 10 {
			cuts = append(cuts, cut)
		}
	}
	if len(cuts) == 0 {
		return nil, fmt.Errorf("experiments: window too short for backtesting")
	}

	tbl := &Table{
		Title:  "Backtest — coverage prediction error vs training-window length (walk-forward)",
		Header: []string{"train ticks", "eval window", "mean cov rel-err", "max cov rel-err"},
	}
	for _, cut := range cuts {
		evalTicks := metricsTicks(cut+10, cut+60)
		var errs []float64
		for _, si := range top {
			src := d.Sources[si]
			e, err := estimate.NewFit(context.Background(), d.World, []*source.Source{src}, cut, evalTicks[len(evalTicks)-1], nil, estimate.FitOptions{})
			if err != nil {
				return nil, err
			}
			qs := e.QualityMulti([]int{0}, evalTicks)
			truth := metrics.QualitySeries(d.World, []*source.Source{src}, evalTicks, nil)
			for i := range evalTicks {
				errs = append(errs, stats.RelativeError(qs[i].Coverage, truth[i].Coverage))
			}
		}
		tbl.AddRow(int(cut), fmt.Sprintf("(%d,%d]", cut+10, cut+60), stats.Mean(errs), stats.Max(errs))
	}
	tbl.AddNote("longer training windows should not degrade accuracy; very short windows are noisier (Section 2.3)")
	return []*Table{tbl}, nil
}
