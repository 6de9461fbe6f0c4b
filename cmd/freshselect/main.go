// Command freshselect runs time-aware source selection end to end on a
// synthetic dataset: generate → train → select → report, for any of the
// paper's algorithms and gain functions, with optional frequency variants
// (Definition 4) and budget constraints.
//
// Usage:
//
//	freshselect -kind bl -alg maxsub -gain linear -metric coverage
//	freshselect -kind bl -alg grasp -kappa 5 -rounds 20 -gain step -metric accuracy
//	freshselect -kind gdelt -alg greedy -gain data
//	freshselect -kind bl -alg maxsub -divisors 2,3,4,5,6,7   # varying frequency
//	freshselect -kind bl -alg maxsub -budget 0.3             # budget βc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"freshsource/internal/core"
	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/serve"
)

func main() {
	var (
		kind     = flag.String("kind", "bl", "dataset kind: bl or gdelt")
		alg      = flag.String("alg", "maxsub", "algorithm: greedy, maxsub, grasp, lazygreedy (CELF) or budgeted")
		gainName = flag.String("gain", "linear", "gain function: linear, quad, step or data")
		metric   = flag.String("metric", "coverage", "quality metric: coverage, local-freshness, global-freshness or accuracy")
		divisors = flag.String("divisors", "", "comma-separated frequency divisors for varying-frequency selection")
		budget   = flag.Float64("budget", 0, "budget on rescaled cost in (0,1]; 0 = unconstrained")
		kappa    = flag.Int("kappa", 5, "GRASP κ")
		rounds   = flag.Int("rounds", 20, "GRASP r")
		workers  = flag.Int("workers", 0, "candidate-sweep workers: 0 = sequential, -1 = all cores")
		future   = flag.Int("future", 10, "number of future time points of interest")
		fitWork  = flag.Int("fit.workers", 0, "model-fitting pool size (0 = GOMAXPROCS, 1 = sequential)")
		mcDir    = flag.String("modelcache", "", "persistent model cache directory; a verified entry skips training (empty = disabled)")
		scale    = flag.Float64("scale", 0.5, "dataset scale")
		seed     = flag.Int64("seed", 1, "seed")
		load     = flag.String("load", "", "load a persisted dataset directory instead of generating")
		obsF     obs.Flags
	)
	obsF.Register(flag.CommandLine)
	flag.Parse()
	if addr, err := obsF.Activate(); err != nil {
		fatal(err)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "freshselect: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}

	d, err := serve.LoadDataset(*load, *kind, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s: %d sources, %d entities, t0=%d\n", d.Name, len(d.Sources), d.World.NumEntities(), d.T0)

	var divs []int
	if *divisors != "" {
		for _, part := range strings.Split(*divisors, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad divisor %q: %w", part, err))
			}
			divs = append(divs, v)
		}
	}

	ticks := serve.SpreadTicks(d.T0, d.Horizon(), *future)
	opt := core.TrainOptions{
		MaxT:         ticks[len(ticks)-1],
		FreqDivisors: divs,
		FitWorkers:   *fitWork,
	}
	var tr *core.Trained
	if *mcDir != "" {
		mc, err := modelcache.New(*mcDir)
		if err != nil {
			fatal(err)
		}
		var status modelcache.Status
		tr, status, err = mc.LoadOrFit(context.Background(), d, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("model cache %s: %s\n", mc.Dir(), status)
	} else {
		var err error
		tr, err = core.Train(d.World, d.Sources, d.T0, opt)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("trained: %d candidates\n", tr.NumCandidates())

	g, err := serve.MakeGain(*gainName, *metric, d.World.NumEntities())
	if err != nil {
		fatal(err)
	}
	prob, err := core.NewProblem(tr, ticks, g, core.ProblemOptions{Budget: *budget})
	if err != nil {
		fatal(err)
	}
	sel, err := prob.Solve(core.Algorithm(*alg), core.SolveOptions{
		Kappa: *kappa, Rounds: *rounds, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nalgorithm %s selected %d candidates in %s (%d oracle calls)\n",
		sel.Algorithm, len(sel.Set), sel.Duration, sel.OracleCalls)
	fmt.Printf("profit %.4f | gain %.4f | avg coverage %.4f | avg accuracy %.4f\n",
		sel.Profit, sel.Gain, sel.AvgCoverage, sel.AvgAccuracy)
	fmt.Println("\nselected:")
	for i := range sel.Set {
		fmt.Printf("  %-16s divisor %d\n", sel.Names[i], sel.Divisors[i])
	}
	if obs.Enabled() {
		fmt.Println()
	}
	if err := obsF.Finish(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freshselect:", err)
	os.Exit(1)
}
