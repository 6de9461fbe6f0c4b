package experiments

import (
	"fmt"
	"math"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/gain"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// algoSpec names one algorithm configuration of Section 6.1.
type algoSpec struct {
	name  string
	alg   core.Algorithm
	kappa int
	r     int
}

func (e *Env) algoSpecs() []algoSpec {
	specs := []algoSpec{
		{name: "Greedy", alg: core.Greedy},
		{name: "MaxSub", alg: core.MaxSub},
	}
	for _, kr := range e.Cfg.GraspConfigs {
		specs = append(specs, algoSpec{
			name:  fmt.Sprintf("Grasp-(%d,%d)", kr[0], kr[1]),
			alg:   core.GRASP,
			kappa: kr[0],
			r:     kr[1],
		})
	}
	return specs
}

func (e *Env) solve(prob *core.Problem, spec algoSpec) (*core.Selection, error) {
	return prob.Solve(spec.alg, core.SolveOptions{
		Epsilon: e.Cfg.Epsilon,
		Kappa:   spec.kappa,
		Rounds:  spec.r,
		Seed:    e.Cfg.Seed,
		Workers: e.Cfg.Workers,
	})
}

// gainConfig names one gain-function configuration of Table 1.
type gainConfig struct {
	label  string
	metric string
	mk     func(d *dataset.Dataset) gain.Function
}

func blGainConfigs() []gainConfig {
	return []gainConfig{
		{"Linear", "cov.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Coverage} }},
		{"Linear", "acc.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Accuracy} }},
		{"Quad", "cov.", func(*dataset.Dataset) gain.Function { return gain.Quad{Metric: gain.Coverage} }},
		{"Quad", "acc.", func(*dataset.Dataset) gain.Function { return gain.Quad{Metric: gain.Accuracy} }},
		{"Step", "cov.", func(*dataset.Dataset) gain.Function { return gain.Step{Metric: gain.Coverage} }},
		{"Step", "acc.", func(*dataset.Dataset) gain.Function { return gain.Step{Metric: gain.Accuracy} }},
		{"Data", "-", func(d *dataset.Dataset) gain.Function {
			return gain.Data{PerItem: 10, OmegaMax: float64(d.World.NumEntities())}
		}},
	}
}

// instanceRun is the result of every algorithm on one problem instance.
type instanceRun struct {
	sel map[string]*core.Selection
}

// runInstances trains one problem per domain point and runs every
// algorithm on it.
func (e *Env) runInstances(d *dataset.Dataset, pts []world.DomainPoint, g gainConfig, divisors []int) ([]instanceRun, error) {
	ticks := futurePoints(d.T0, d.Horizon(), 10)
	specs := e.algoSpecs()
	var runs []instanceRun
	for _, p := range pts {
		tr, err := e.Train(d, core.TrainOptions{
			Points:       []world.DomainPoint{p},
			MaxT:         ticks[len(ticks)-1],
			FreqDivisors: divisors,
		})
		if err != nil {
			return nil, err
		}
		prob, err := core.NewProblem(tr, ticks, g.mk(d), core.ProblemOptions{})
		if err != nil {
			return nil, err
		}
		run := instanceRun{sel: map[string]*core.Selection{}}
		for _, spec := range specs {
			sel, err := e.solve(prob, spec)
			if err != nil {
				return nil, err
			}
			run.sel[spec.name] = sel
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// bestStats summarises how one algorithm compares with the best selection
// across instances: the fraction of instances where it found the best
// profit, and the average and worst profit gap (in % of the best) on the
// others.
type bestStats struct {
	bestFrac  float64
	avgDiff   float64
	worstDiff float64
}

func summarize(runs []instanceRun, name string) bestStats {
	var best, diffs int
	var avg, worst float64
	for _, r := range runs {
		top := math.Inf(-1)
		for _, sel := range r.sel {
			if sel.Profit > top {
				top = sel.Profit
			}
		}
		mine := r.sel[name].Profit
		if mine >= top-1e-9 {
			best++
			continue
		}
		diffs++
		var d float64
		if top != 0 {
			d = 100 * (top - mine) / math.Abs(top)
		} else {
			d = 100 * (top - mine)
		}
		avg += d
		if d > worst {
			worst = d
		}
	}
	st := bestStats{bestFrac: float64(best) / float64(len(runs)), worstDiff: worst}
	if diffs > 0 {
		st.avgDiff = avg / float64(diffs)
	}
	return st
}

// bestGrasp picks the best-performing GRASP configuration (highest best
// fraction, then lowest average gap).
func bestGrasp(runs []instanceRun, specs []algoSpec) (string, bestStats) {
	bestName, best := "", bestStats{bestFrac: -1}
	for _, s := range specs {
		if s.alg != core.GRASP {
			continue
		}
		st := summarize(runs, s.name)
		if st.bestFrac > best.bestFrac || (st.bestFrac == best.bestFrac && st.avgDiff < best.avgDiff) {
			bestName, best = s.name, st
		}
	}
	return bestName, best
}

func avgRuntime(runs []instanceRun, name string) (avg, max time.Duration) {
	var total time.Duration
	for _, r := range runs {
		d := r.sel[name].Duration
		total += d
		if d > max {
			max = d
		}
	}
	return total / time.Duration(len(runs)), max
}

// Table1and2 reproduces Tables 1 and 2: selection quality and runtimes of
// Greedy, MaxSub and GRASP across the gain configurations on BL with fixed
// update frequencies, over the six largest domain points.
func Table1and2(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	pts := largestPoints(d.World, d.T0, 6)
	specs := env.algoSpecs()

	t1 := &Table{
		Title:  "Table 1 — selection quality on BL (fixed frequencies): % best and avg (worst) profit gap",
		Header: []string{"gain", "metric", "msr", "Greedy", "MaxSub", "Grasp"},
	}
	t2 := &Table{
		Title:  "Table 2 — average (max) run times on BL, seconds",
		Header: []string{"gain", "metric", "Greedy", "MaxSub"},
	}
	for _, s := range specs {
		if s.alg == core.GRASP {
			t2.Header = append(t2.Header, s.name)
		}
	}

	for _, gc := range blGainConfigs() {
		runs, err := env.runInstances(d, pts, gc, nil)
		if err != nil {
			return nil, err
		}
		gr := summarize(runs, "Greedy")
		ms := summarize(runs, "MaxSub")
		gname, gs := bestGrasp(runs, specs)
		t1.AddRow(gc.label, gc.metric, "best",
			fmt.Sprintf("%.1f%%", 100*gr.bestFrac),
			fmt.Sprintf("%.1f%%", 100*ms.bestFrac),
			fmt.Sprintf("%.1f%% %s", 100*gs.bestFrac, gname))
		t1.AddRow("", "", "diff",
			fmt.Sprintf("%.2f (%.2f)%%", gr.avgDiff, gr.worstDiff),
			fmt.Sprintf("%.2f (%.2f)%%", ms.avgDiff, ms.worstDiff),
			fmt.Sprintf("%.2f (%.2f)%%", gs.avgDiff, gs.worstDiff))

		row := []interface{}{gc.label, gc.metric}
		for _, s := range specs {
			a, m := avgRuntime(runs, s.name)
			row = append(row, fmt.Sprintf("%.3f (%.3f)", a.Seconds(), m.Seconds()))
		}
		t2.AddRow(row...)
	}
	return []*Table{t1, t2}, nil
}

// Table3 reproduces Table 3: performance and runtime on GDELT for
// LINEARGAIN-coverage and DATAGAIN over six US domain points.
func Table3(env *Env) ([]*Table, error) {
	d, err := env.GDELT()
	if err != nil {
		return nil, err
	}
	pts := pointsOfLocation(d.World, 0)
	pts = largestPointsOf(d.World, pts, d.T0, 6)
	specs := env.algoSpecs()

	tbl := &Table{
		Title:  "Table 3 — selection quality and runtime on GDELT",
		Header: []string{"gain", "msr", "Greedy", "MaxSub", "Grasp"},
	}
	configs := []gainConfig{
		{"Linear", "cov.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Coverage} }},
		{"Data", "-", func(d *dataset.Dataset) gain.Function {
			return gain.Data{PerItem: 10, OmegaMax: float64(d.World.NumEntities())}
		}},
	}
	for _, gc := range configs {
		runs, err := env.runInstances(d, pts, gc, nil)
		if err != nil {
			return nil, err
		}
		gr, ms := summarize(runs, "Greedy"), summarize(runs, "MaxSub")
		gname, gs := bestGrasp(runs, specs)
		tbl.AddRow(gc.label, "best",
			fmt.Sprintf("%.1f%%", 100*gr.bestFrac),
			fmt.Sprintf("%.1f%%", 100*ms.bestFrac),
			fmt.Sprintf("%.1f%% %s", 100*gs.bestFrac, gname))
		tbl.AddRow("", "diff",
			fmt.Sprintf("%.2f (%.2f)%%", gr.avgDiff, gr.worstDiff),
			fmt.Sprintf("%.2f (%.2f)%%", ms.avgDiff, ms.worstDiff),
			fmt.Sprintf("%.2f (%.2f)%%", gs.avgDiff, gs.worstDiff))
		ga, gm := avgRuntime(runs, "Greedy")
		ma, mm := avgRuntime(runs, "MaxSub")
		pa, pm := avgRuntime(runs, gname)
		tbl.AddRow("", "runtime (s)",
			fmt.Sprintf("%.3f (%.3f)", ga.Seconds(), gm.Seconds()),
			fmt.Sprintf("%.3f (%.3f)", ma.Seconds(), mm.Seconds()),
			fmt.Sprintf("%.3f (%.3f)", pa.Seconds(), pm.Seconds()))
	}
	return []*Table{tbl}, nil
}

// largestPointsOf sorts a point set by size at t and keeps the top k.
func largestPointsOf(w *world.World, pts []world.DomainPoint, t timeline.Tick, k int) []world.DomainPoint {
	out := append([]world.DomainPoint(nil), pts...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if w.AliveCount(t, []world.DomainPoint{out[j]}) > w.AliveCount(t, []world.DomainPoint{out[i]}) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// selectionCharacteristics reports, per algorithm, the average selected
// quality and number of sources over the instances (Tables 4–6).
func (e *Env) selectionCharacteristics(d *dataset.Dataset, pts []world.DomainPoint, divisors []int, title string, metrics []gainConfig) (*Table, []instanceRun, error) {
	tbl := &Table{Title: title}
	tbl.Header = []string{"alg"}
	for _, m := range metrics {
		tbl.Header = append(tbl.Header, m.metric+" avg-qual", m.metric+" avg-#srcs")
	}
	algNames := []string{"Greedy", "MaxSub"}
	gname := ""
	var lastRuns []instanceRun

	perAlg := map[string][]string{}
	for _, gc := range metrics {
		runs, err := e.runInstances(d, pts, gc, divisors)
		if err != nil {
			return nil, nil, err
		}
		lastRuns = runs
		if gname == "" {
			gname, _ = bestGrasp(runs, e.algoSpecs())
		}
		for _, name := range append(append([]string{}, algNames...), gname) {
			var qual, nsrc float64
			for _, r := range runs {
				sel := r.sel[name]
				if gc.metric == "acc." {
					qual += sel.AvgAccuracy
				} else {
					qual += sel.AvgCoverage
				}
				nsrc += float64(len(sel.Set))
			}
			qual /= float64(len(runs))
			nsrc /= float64(len(runs))
			perAlg[name] = append(perAlg[name], fmtF(qual), fmt.Sprintf("%.1f", nsrc))
		}
	}
	for _, name := range append(append([]string{}, algNames...), gname) {
		row := []interface{}{name}
		for _, c := range perAlg[name] {
			row = append(row, c)
		}
		tbl.AddRow(row...)
	}
	return tbl, lastRuns, nil
}

// Table4 reproduces Table 4: characteristics of the selected sources on BL
// with fixed frequencies.
func Table4(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	pts := largestPoints(d.World, d.T0, 6)
	cfgs := []gainConfig{
		{"Linear", "cov.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Coverage} }},
		{"Linear", "acc.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Accuracy} }},
	}
	tbl, _, err := env.selectionCharacteristics(d, pts, nil,
		"Table 4 — characteristics of selected sources (BL, fixed frequencies)", cfgs)
	if err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}

// Table5 reproduces Table 5: characteristics of the selected sources on
// GDELT.
func Table5(env *Env) ([]*Table, error) {
	d, err := env.GDELT()
	if err != nil {
		return nil, err
	}
	pts := pointsOfLocation(d.World, 0)
	pts = largestPointsOf(d.World, pts, d.T0, 6)
	cfgs := []gainConfig{
		{"Linear", "cov.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Coverage} }},
	}
	tbl, _, err := env.selectionCharacteristics(d, pts, nil,
		"Table 5 — characteristics of selected sources (GDELT)", cfgs)
	if err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}

// Table6and7 reproduces Tables 6 and 7: selection with variable update
// frequencies (seven versions per source) on BL — quality and source
// counts, and the average frequency divisors for uniform vs specialised
// sources.
func Table6and7(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	pts := largestPoints(d.World, d.T0, 6)
	divisors := []int{2, 3, 4, 5, 6, 7}
	cfgs := []gainConfig{
		{"Linear", "cov.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Coverage} }},
		{"Linear", "acc.", func(*dataset.Dataset) gain.Function { return gain.Linear{Metric: gain.Accuracy} }},
	}
	t6, runs, err := env.selectionCharacteristics(d, pts, divisors,
		"Table 6 — characteristics of selected sources (BL, variable frequencies, 7 versions/source)", cfgs)
	if err != nil {
		return nil, err
	}

	// Table 7: average divisor for uniform vs specialised sources.
	uniform := uniformSourceSet(d)
	t7 := &Table{
		Title:  "Table 7 — average frequency divisor of selected source versions",
		Header: []string{"alg", "uniform srcs", "specialized srcs"},
	}
	gname, _ := bestGrasp(runs, env.algoSpecs())
	for _, name := range []string{"Greedy", "MaxSub", gname} {
		var uSum, sSum float64
		var uN, sN int
		for _, r := range runs {
			sel := r.sel[name]
			for k, i := range sel.Set {
				_ = i
				div := float64(sel.Divisors[k])
				srcIdx := sourceIndexOfName(d, sel.Names[k])
				if uniform[srcIdx] {
					uSum += div
					uN++
				} else {
					sSum += div
					sN++
				}
			}
		}
		uAvg, sAvg := 0.0, 0.0
		if uN > 0 {
			uAvg = uSum / float64(uN)
		}
		if sN > 0 {
			sAvg = sSum / float64(sN)
		}
		t7.AddRow(name, fmt.Sprintf("%.1f", uAvg), fmt.Sprintf("%.1f", sAvg))
	}
	t7.AddNote("paper: large uniform sources get big divisors (4.9–5.2); specialized sources keep fast acquisition (2.6–3.2)")
	return []*Table{t6, t7}, nil
}

// uniformSourceSet flags sources covering at least half of both dimensions.
func uniformSourceSet(d *dataset.Dataset) map[int]bool {
	nLocs, nCats := map[int]bool{}, map[int]bool{}
	for _, p := range d.World.Points() {
		nLocs[p.Location] = true
		nCats[p.Category] = true
	}
	out := map[int]bool{}
	for i, s := range d.Sources {
		locs, cats := map[int]bool{}, map[int]bool{}
		for _, p := range s.Spec().Points {
			locs[p.Location] = true
			cats[p.Category] = true
		}
		out[i] = len(locs) >= len(nLocs)/2 && len(cats) >= len(nCats)/2
	}
	return out
}

// sourceIndexOfName maps a (possibly "/m"-suffixed) candidate name back to
// the source index in the dataset.
func sourceIndexOfName(d *dataset.Dataset, name string) int {
	base := name
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			base = name[:i]
			break
		}
	}
	for i, s := range d.Sources {
		if s.Name() == base {
			return i
		}
	}
	return -1
}
