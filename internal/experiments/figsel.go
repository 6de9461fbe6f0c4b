package experiments

import (
	"fmt"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/gain"
	"freshsource/internal/world"
)

// Fig12 reproduces Figure 12: the types of sources GRASP selects across
// the Table-1 instances when the gain is defined with coverage vs with
// accuracy — accuracy prefers smaller, more specialised sources.
func Fig12(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	pts := largestPoints(d.World, d.T0, 6)
	ticks := futurePoints(d.T0, d.Horizon(), 10)
	sizes := d.SizeAt(d.T0)

	var out []*Table
	var avgSize [2]float64
	for mi, m := range []gain.Metric{gain.Coverage, gain.Accuracy} {
		// Union of GRASP selections over the six domain-point instances.
		selected := map[int]bool{}
		for _, p := range pts {
			tr, err := env.Train(d, core.TrainOptions{
				Points: []world.DomainPoint{p},
				MaxT:   ticks[len(ticks)-1],
			})
			if err != nil {
				return nil, err
			}
			prob, err := core.NewProblem(tr, ticks, gain.Linear{Metric: m}, core.ProblemOptions{})
			if err != nil {
				return nil, err
			}
			sel, err := prob.Solve(core.GRASP, core.SolveOptions{
				Kappa: 5, Rounds: 20, Seed: env.Cfg.Seed, Epsilon: env.Cfg.Epsilon,
				Workers: env.Cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			for _, i := range sel.Set {
				selected[tr.CandidateSource(i)] = true
			}
		}
		tbl := &Table{
			Title:  fmt.Sprintf("Figure 12 — sources selected by GRASP for %s gain (union over the 6 instances)", m),
			Header: []string{"source", "#locations", "#categories", "size@t0"},
		}
		var total float64
		for srcIdx := range len(d.Sources) {
			if !selected[srcIdx] {
				continue
			}
			s := d.Sources[srcIdx]
			locs, cats := map[int]bool{}, map[int]bool{}
			for _, p := range s.Spec().Points {
				locs[p.Location] = true
				cats[p.Category] = true
			}
			tbl.AddRow(s.Name(), len(locs), len(cats), sizes[srcIdx])
			total += float64(sizes[srcIdx])
		}
		if len(selected) > 0 {
			avgSize[mi] = total / float64(len(selected))
		}
		out = append(out, tbl)
	}
	out[1].AddNote("avg selected source size: coverage %.0f vs accuracy %.0f (paper: accuracy prefers smaller, specialised sources)",
		avgSize[0], avgSize[1])
	return out, nil
}

// Fig13a reproduces Figure 13(a): runtime of the algorithms as the number
// of available sources grows via the BL+ micro-source decomposition.
func Fig13a(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	p := largestPoints(d.World, d.T0, 1)
	ticks := futurePoints(d.T0, d.Horizon(), 10)
	specs := env.algoSpecs()

	tbl := &Table{Title: "Figure 13a — runtime (ms) vs number of available sources (BL+)"}
	tbl.Header = []string{"#sources"}
	for _, s := range specs {
		tbl.Header = append(tbl.Header, s.name)
	}
	for _, m := range env.Cfg.ScalabilityMultipliers {
		plus, err := d.AddMicroSources(m, env.Cfg.Seed+int64(m))
		if err != nil {
			return nil, err
		}
		tr, err := env.Train(plus, core.TrainOptions{
			Points: p,
			MaxT:   ticks[len(ticks)-1],
		})
		if err != nil {
			return nil, err
		}
		prob, err := core.NewProblem(tr, ticks, gain.Linear{Metric: gain.Coverage}, core.ProblemOptions{})
		if err != nil {
			return nil, err
		}
		row := []interface{}{len(plus.Sources)}
		for _, spec := range specs {
			// Multi-round GRASP at thousands of candidates costs tens of
			// minutes (the paper reports ~10^6 ms); cap it so the sweep
			// stays tractable and mark the skip. The order-of-magnitude
			// ordering is already established at the smaller sizes.
			if spec.alg == core.GRASP && spec.kappa*spec.r > 400 && len(plus.Sources) > 1000 {
				row = append(row, "skipped")
				continue
			}
			if spec.alg == core.GRASP && spec.r > 1 && len(plus.Sources) > 2500 {
				row = append(row, "skipped")
				continue
			}
			sel, err := env.solve(prob, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, durMS(sel.Duration))
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("paper: MaxSub is 1–2 orders of magnitude faster than the best GRASP configurations and scales better")
	tbl.AddNote("multi-round GRASP is skipped above 2500 sources (paper reports ~10^6 ms there)")
	return []*Table{tbl}, nil
}

// Fig13b reproduces Figure 13(b): runtime vs the size of the input data
// domain (number of (location, business-type) pairs in the query).
func Fig13b(env *Env) ([]*Table, error) {
	d, err := env.BL()
	if err != nil {
		return nil, err
	}
	all := largestPoints(d.World, d.T0, len(d.World.Points()))
	sizes := env.Cfg.DomainSizes
	if len(sizes) == 0 {
		sizes = []int{1, 50, 100, 200, 300, 400, 500}
	}
	ticks := futurePoints(d.T0, d.Horizon(), 10)

	// Coverage and accuracy gains, the algorithms of the paper's plot.
	specs := []algoSpec{
		{name: "Greedy", alg: core.Greedy},
		{name: "MaxSub", alg: core.MaxSub},
		{name: "Grasp-(1,1)", alg: core.GRASP, kappa: 1, r: 1},
		{name: "Grasp-(5,20)", alg: core.GRASP, kappa: 5, r: 20},
	}
	tbl := &Table{Title: "Figure 13b — runtime (ms) vs size of the input data domain"}
	tbl.Header = []string{"#points"}
	for _, m := range []string{"Cov.", "Acc."} {
		for _, s := range specs {
			tbl.Header = append(tbl.Header, m+"-"+s.name)
		}
	}
	for _, n := range sizes {
		if n > len(all) {
			break
		}
		pts := all[:n]
		tr, err := env.Train(d, core.TrainOptions{Points: pts, MaxT: ticks[len(ticks)-1]})
		if err != nil {
			return nil, err
		}
		row := []interface{}{n}
		for _, metric := range []gain.Metric{gain.Coverage, gain.Accuracy} {
			prob, err := core.NewProblem(tr, ticks, gain.Linear{Metric: metric}, core.ProblemOptions{})
			if err != nil {
				return nil, err
			}
			for _, spec := range specs {
				sel, err := env.solve(prob, spec)
				if err != nil {
					return nil, err
				}
				row = append(row, durMS(sel.Duration))
			}
		}
		tbl.AddRow(row...)
	}
	return []*Table{tbl}, nil
}

func durMS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
