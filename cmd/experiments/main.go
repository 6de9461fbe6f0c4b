// Command experiments regenerates the paper's tables and figures on the
// synthetic BL/GDELT datasets.
//
// Usage:
//
//	experiments -exp all                 # everything, full size
//	experiments -exp tab1-2,fig11       # specific experiments
//	experiments -exp fig13a -quick      # scaled-down configuration
//	experiments -list                   # show experiment ids
//	experiments -exp all -out results/  # also write one text file per id
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"freshsource/internal/experiments"
	"freshsource/internal/obs"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quick   = flag.Bool("quick", false, "use the scaled-down configuration")
		outDir  = flag.String("out", "", "directory to write per-experiment text files (optional)")
		mults   = flag.String("multipliers", "", "override BL+ micro-source multipliers, e.g. 0,1,2,5,10")
		sizes   = flag.String("sizes", "", "override Figure 13b domain sizes, e.g. 1,50,100,200")
		grasps  = flag.String("grasp", "", "override GRASP configs, e.g. 1,1;2,10;5,20")
		workers = flag.Int("workers", 0, "candidate-sweep workers per selection run: 0 = sequential, -1 = all cores")
		fitWork = flag.Int("fit.workers", 0, "model-fitting pool size (0 = GOMAXPROCS, 1 = sequential)")
		mcDir   = flag.String("modelcache", "", "persistent model cache directory; repeated runs skip refitting (empty = disabled)")
		obsF    obs.Flags
	)
	obsF.Register(flag.CommandLine)
	flag.Parse()
	if addr, err := obsF.Activate(); err != nil {
		fatal(err)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "experiments: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Workers = *workers
	cfg.FitWorkers = *fitWork
	cfg.ModelCacheDir = *mcDir
	if *mults != "" {
		cfg.ScalabilityMultipliers = nil
		for _, part := range strings.Split(*mults, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad multiplier %q: %w", part, err))
			}
			cfg.ScalabilityMultipliers = append(cfg.ScalabilityMultipliers, v)
		}
	}
	if *sizes != "" {
		cfg.DomainSizes = nil
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad size %q: %w", part, err))
			}
			cfg.DomainSizes = append(cfg.DomainSizes, v)
		}
	}
	if *grasps != "" {
		cfg.GraspConfigs = nil
		for _, pair := range strings.Split(*grasps, ";") {
			var k, r int
			if _, err := fmt.Sscanf(strings.TrimSpace(pair), "%d,%d", &k, &r); err != nil {
				fatal(fmt.Errorf("bad grasp config %q: %w", pair, err))
			}
			cfg.GraspConfigs = append(cfg.GraspConfigs, [2]int{k, r})
		}
	}
	env := experiments.NewEnv(cfg)

	var ids []string
	if *expFlag == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	for _, id := range ids {
		// Reset telemetry per experiment so each artifact's snapshot
		// describes only the run that produced it.
		obs.Active().Reset()
		start := time.Now()
		tables, err := experiments.Run(id, env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		snap := obs.Active().Snapshot()
		if tt := experiments.TelemetryTable(snap); tt != nil {
			tables = append(tables, tt)
		}
		var b strings.Builder
		for _, t := range tables {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		fmt.Printf("# %s (%.1fs)\n%s", id, time.Since(start).Seconds(), b.String())
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".txt")
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				fatal(err)
			}
			if obs.Enabled() {
				jf, err := os.Create(filepath.Join(*outDir, id+".obs.json"))
				if err != nil {
					fatal(err)
				}
				if err := snap.WriteJSON(jf); err != nil {
					fatal(err)
				}
				jf.Close()
			}
		}
	}
	if err := obsF.Finish(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
