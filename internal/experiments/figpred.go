package experiments

import (
	"context"
	"fmt"
	"sort"

	"freshsource/internal/estimate"
	"freshsource/internal/metrics"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// predictOmegaErrors fits world models for a group of points at T0 and
// returns the relative error of E[|Ω|t] vs the actual count at each tick.
func predictOmegaErrors(w *world.World, t0 timeline.Tick, pts []world.DomainPoint, ticks []timeline.Tick) ([]float64, error) {
	var models []*estimate.WorldModel
	for _, p := range pts {
		m, err := estimate.FitWorldPoint(w, t0, p)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	pred := estimate.PredictOmegaSeries(models, ticks)
	errs := make([]float64, len(ticks))
	for i, t := range ticks {
		actual := float64(w.AliveCount(t, pts))
		errs[i] = stats.RelativeError(pred[i], actual)
	}
	return errs, nil
}

// groupByError partitions named error series into nGroups by average error
// and returns one representative (the group median) per group with the
// group size.
type repSeries struct {
	name   string
	size   int
	series []float64
}

func groupByError(names []string, series [][]float64, nGroups int) []repSeries {
	type item struct {
		name string
		avg  float64
		s    []float64
	}
	items := make([]item, len(names))
	for i := range names {
		items[i] = item{names[i], stats.Mean(series[i]), series[i]}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].avg < items[j].avg })
	if nGroups > len(items) {
		nGroups = len(items)
	}
	var out []repSeries
	for g := 0; g < nGroups; g++ {
		lo := g * len(items) / nGroups
		hi := (g + 1) * len(items) / nGroups
		if hi <= lo {
			continue
		}
		rep := items[(lo+hi)/2]
		out = append(out, repSeries{name: rep.name, size: hi - lo, series: rep.s})
	}
	return out
}

// Fig9 reproduces Figures 9(a)/(b): relative error of predicted listing
// counts per state group (5 groups) and per business-category group (4
// groups of the 10 largest categories) over 13 future time points.
func Fig9(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	ticks := futurePoints(d.T0, d.Horizon(), 13)

	// (a) per state.
	locSet := map[int]bool{}
	for _, p := range d.World.Points() {
		locSet[p.Location] = true
	}
	var names []string
	var series [][]float64
	for l := 0; l < len(locSet); l++ {
		errs, err := predictOmegaErrors(d.World, d.T0, pointsOfLocation(d.World, l), ticks)
		if err != nil {
			return nil, err
		}
		names = append(names, fmt.Sprintf("state-%02d", l))
		series = append(series, errs)
	}
	reps := groupByError(names, series, 5)
	ta := &Table{Title: "Figure 9a — relative prediction error of total listings per state group (BL)"}
	ta.Header = append(ta.Header, "time-index")
	for _, r := range reps {
		ta.Header = append(ta.Header, fmt.Sprintf("%s(n=%d)", r.name, r.size))
	}
	for i := range ticks {
		row := []interface{}{i + 1}
		for _, r := range reps {
			row = append(row, r.series[i])
		}
		ta.AddRow(row...)
	}
	var all float64
	var cnt int
	for _, s := range series {
		for _, e := range s {
			all += e
			cnt++
		}
	}
	ta.AddNote("mean relative error over all states and ticks = %.4f (paper: ≈ 2%%)", all/float64(cnt))

	// (b) per business category: the 10 largest categories.
	type catSize struct {
		cat  int
		size int
	}
	catCount := map[int]int{}
	for _, p := range d.World.Points() {
		catCount[p.Category] += d.World.AliveCount(d.T0, []world.DomainPoint{p})
	}
	var cats []catSize
	for c, n := range catCount {
		cats = append(cats, catSize{c, n})
	}
	sort.Slice(cats, func(i, j int) bool {
		if cats[i].size != cats[j].size {
			return cats[i].size > cats[j].size
		}
		return cats[i].cat < cats[j].cat
	})
	if len(cats) > 10 {
		cats = cats[:10]
	}
	names, series = nil, nil
	for _, cs := range cats {
		var pts []world.DomainPoint
		for _, p := range d.World.Points() {
			if p.Category == cs.cat {
				pts = append(pts, p)
			}
		}
		errs, err := predictOmegaErrors(d.World, d.T0, pts, ticks)
		if err != nil {
			return nil, err
		}
		names = append(names, fmt.Sprintf("cat-%02d", cs.cat))
		series = append(series, errs)
	}
	reps = groupByError(names, series, 4)
	tb := &Table{Title: "Figure 9b — relative prediction error of total listings per business-category group (BL)"}
	tb.Header = append(tb.Header, "time-index")
	for _, r := range reps {
		tb.Header = append(tb.Header, fmt.Sprintf("%s(n=%d)", r.name, r.size))
	}
	for i := range ticks {
		row := []interface{}{i + 1}
		for _, r := range reps {
			row = append(row, r.series[i])
		}
		tb.AddRow(row...)
	}
	return []*Table{ta, tb}, nil
}

// Fig10a reproduces Figure 10(a): relative error of predicted event counts
// for four event-location pairs in GDELT over 7 future days.
func Fig10a(env *Env) ([]*Table, error) {
	d, err := env.GDELT()
	if err != nil {
		return nil, err
	}
	ticks := futurePoints(d.T0, d.Horizon(), 7)
	// Two event types from each of the two largest locations (US, IN in
	// the paper).
	var pairs []world.DomainPoint
	for _, loc := range []int{0, 1} {
		pts := pointsOfLocation(d.World, loc)
		sort.Slice(pts, func(i, j int) bool {
			return d.World.AliveCount(d.T0, []world.DomainPoint{pts[i]}) > d.World.AliveCount(d.T0, []world.DomainPoint{pts[j]})
		})
		pairs = append(pairs, pts[0], pts[1])
	}
	tbl := &Table{Title: "Figure 10a — relative prediction error of total events, 4 event-location pairs (GDELT)"}
	tbl.Header = append(tbl.Header, "day")
	var all [][]float64
	for _, p := range pairs {
		errs, err := predictOmegaErrors(d.World, d.T0, []world.DomainPoint{p}, ticks)
		if err != nil {
			return nil, err
		}
		all = append(all, errs)
		tbl.Header = append(tbl.Header, fmt.Sprintf("L%d-EvT%d", p.Location, p.Category))
	}
	for i := range ticks {
		row := []interface{}{i + 1}
		for _, errs := range all {
			row = append(row, errs[i])
		}
		tbl.AddRow(row...)
	}
	return []*Table{tbl}, nil
}

// predictSourceQuality builds a per-source estimator and returns the
// relative errors of predicted coverage, local freshness and accuracy vs
// ground truth at the given ticks.
func predictSourceQuality(d *datasetHandle, src *source.Source, pts []world.DomainPoint, ticks []timeline.Tick) (cov, lf, acc []float64, err error) {
	e, err := estimate.NewFit(context.Background(), d.world, []*source.Source{src}, d.t0, ticks[len(ticks)-1], pts, estimate.FitOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	qs := e.QualityMulti([]int{0}, ticks)
	truth := metrics.QualitySeries(d.world, []*source.Source{src}, ticks, pts)
	for i := range ticks {
		cov = append(cov, stats.RelativeError(qs[i].Coverage, truth[i].Coverage))
		lf = append(lf, stats.RelativeError(qs[i].LocalFreshness, truth[i].LocalFreshness))
		acc = append(acc, stats.RelativeError(qs[i].Accuracy, truth[i].Accuracy))
	}
	return cov, lf, acc, nil
}

// datasetHandle is the slice of dataset fields the prediction helpers need.
type datasetHandle struct {
	world *world.World
	t0    timeline.Tick
}

// Fig10b reproduces Figure 10(b): relative error of coverage prediction for
// three large US sources in GDELT over 7 future days.
func Fig10b(env *Env) ([]*Table, error) {
	d, err := env.GDELT()
	if err != nil {
		return nil, err
	}
	ticks := futurePoints(d.T0, d.Horizon(), 7)
	pts := pointsOfLocation(d.World, 0)
	tbl := &Table{Title: "Figure 10b — relative error of coverage prediction, 3 large US sources (GDELT)"}
	tbl.Header = append(tbl.Header, "day")
	h := &datasetHandle{world: d.World, t0: d.T0}
	var all [][]float64
	var names []string
	count := 0
	for _, i := range d.LargestSources(len(d.Sources)) {
		src := d.Sources[i]
		// Only sources that actually cover the location qualify.
		coversLoc := false
		for _, p := range src.Spec().Points {
			if p.Location == 0 {
				coversLoc = true
				break
			}
		}
		if !coversLoc {
			continue
		}
		cov, _, _, err := predictSourceQuality(h, src, pts, ticks)
		if err != nil {
			return nil, err
		}
		all = append(all, cov)
		names = append(names, src.Name())
		count++
		if count == 3 {
			break
		}
	}
	tbl.Header = append(tbl.Header, names...)
	for i := range ticks {
		row := []interface{}{i + 1}
		for _, errs := range all {
			row = append(row, errs[i])
		}
		tbl.AddRow(row...)
	}
	return []*Table{tbl}, nil
}

// Fig11 reproduces Figure 11: relative error of predicted coverage,
// freshness and accuracy for the two largest BL sources over 13 future
// time points.
func Fig11(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	ticks := futurePoints(d.T0, d.Horizon(), 13)
	h := &datasetHandle{world: d.World, t0: d.T0}
	var out []*Table
	for rank, i := range d.LargestSources(2) {
		src := d.Sources[i]
		cov, lf, acc, err := predictSourceQuality(h, src, nil, ticks)
		if err != nil {
			return nil, err
		}
		tbl := &Table{
			Title:  fmt.Sprintf("Figure 11 — quality prediction error for the #%d largest BL source (%s)", rank+1, src.Name()),
			Header: []string{"time-index", "cov rel-err", "frsh rel-err", "acc rel-err"},
		}
		for k := range ticks {
			tbl.AddRow(k+1, cov[k], lf[k], acc[k])
		}
		tbl.AddNote("max relative errors: cov %.4f, frsh %.4f, acc %.4f (paper: <1.5%% for #1, <2.5%% for #2)",
			stats.Max(cov), stats.Max(lf), stats.Max(acc))
		out = append(out, tbl)
	}
	return out, nil
}
