// Command benchjson converts `go test -bench` output on stdin into a JSON
// record (the internal/benchfmt schema), computing the speedup of each
// accelerated variant against its family's "seq" baseline (sub-benchmark
// naming Family/variant). The root Makefile's bench target pipes the
// selection benchmarks through it to produce BENCH_selection.json.
//
// With -compare it additionally diffs the fresh run against a previously
// committed report and exits non-zero when any shared benchmark slowed
// down by more than -tolerance, or grew its allocs/op past
// -alloc-tolerance (zero-alloc baselines are pinned exactly) — CI's
// bench-regression gate. The emitted context records gomaxprocs, numcpu
// and the commit stamped into the binary (the Makefile passes its
// -ldflags to every benchjson run); on single-core runs the gate skips
// parallel-variant regressions with a logged note, since fan-out cannot
// pay off without cores.
//
// With -require-faster "Fast<Slow,..." it additionally asserts speedups
// exist: each Fast benchmark's ns/op must beat its Slow partner's in this
// run. Applied whenever GOMAXPROCS > 1, with or without -compare — this
// is the gate that keeps the parallel CELF path genuinely faster than
// sequential. A profile only measures parallel speedup on at least two
// CPUs; `make bench` refuses to record one with numcpu < 2.
//
// Usage:
//
//	go test -bench . ./internal/selection | benchjson -out BENCH_selection.json
//	go test -bench . ./internal/selection | benchjson -compare BENCH_selection.json -tolerance 0.25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"freshsource/internal/benchfmt"
	"freshsource/internal/version"
)

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	compare := flag.String("compare", "", "reference report to diff against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional slowdown per benchmark in compare mode")
	allocTolerance := flag.Float64("alloc-tolerance", 0.25, "allowed fractional allocs/op growth in compare mode (zero-alloc baselines are pinned exactly)")
	requireFaster := flag.String("require-faster", "", "comma-separated Fast<Slow benchmark pairs that must hold in this run when GOMAXPROCS > 1 (pairs with absent benchmarks are skipped with a note; never waived for numcpu=1)")
	flag.Parse()

	rep, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	benchfmt.ComputeSpeedups(&rep)
	// Record the core budget alongside goos/cpu: parallel-variant speedups
	// only mean something when the run actually had cores to fan out over,
	// and the compare gate needs to know (benchjson runs on the machine
	// that just ran the benchmarks, so this describes the same host).
	rep.Context["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	rep.Context["numcpu"] = strconv.Itoa(runtime.NumCPU())
	rep.Context["commit"] = version.Commit

	if *requireFaster != "" {
		pairs, err := benchfmt.ParseFasterPairs(*requireFaster)
		if err != nil {
			fatal(err)
		}
		// The check keys on gomaxprocs alone: at GOMAXPROCS=1 the runtime
		// cannot overlap sweeps, so "parallel beats sequential" is vacuously
		// unachievable. A numcpu=1 run with GOMAXPROCS>1 only time-slices
		// one core and proves nothing either way; it is still checked, and
		// `make bench` refuses to record its baseline.
		if rep.Context["gomaxprocs"] == "1" {
			fmt.Fprintf(os.Stderr, "benchjson: note: -require-faster skipped (GOMAXPROCS=1)\n")
		} else {
			viols, skipped := benchfmt.CheckFaster(rep, pairs)
			for _, p := range skipped {
				fmt.Fprintf(os.Stderr, "benchjson: note: require-faster %s<%s skipped (benchmark absent from this run)\n", p.Fast, p.Slow)
			}
			for _, v := range viols {
				fmt.Fprintf(os.Stderr, "benchjson: REQUIRE-FASTER FAILED %s (%.0f ns/op) is not faster than %s (%.0f ns/op)\n",
					v.Pair.Fast, v.FastNs, v.Pair.Slow, v.SlowNs)
			}
			if len(viols) > 0 {
				os.Exit(1)
			}
		}
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var ref benchfmt.Report
		if err := json.Unmarshal(raw, &ref); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *compare, err))
		}
		regs, missing := benchfmt.Compare(ref, rep, *tolerance)
		if rep.SingleCore() {
			var skipped []string
			regs, skipped = benchfmt.SkipParallel(regs)
			for _, name := range skipped {
				fmt.Fprintf(os.Stderr, "benchjson: note: skipping parallel-variant gate for %s (single-core run, GOMAXPROCS=%s NumCPU=%s)\n",
					name, rep.Context["gomaxprocs"], rep.Context["numcpu"])
			}
		}
		allocRegs := benchfmt.CompareAllocs(ref, rep, *allocTolerance)
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "benchjson: warning: %s in %s but absent from this run\n", name, *compare)
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.0f ns/op -> %.0f ns/op (%.2fx > %.2fx allowed)\n",
				r.Name, r.OldNs, r.NewNs, r.Ratio, r.Bound)
		}
		for _, r := range allocRegs {
			fmt.Fprintf(os.Stderr, "benchjson: ALLOC REGRESSION %s: %d allocs/op -> %d allocs/op (max %d allowed)\n",
				r.Name, r.OldAllocs, r.NewAllocs, r.Bound)
		}
		if len(regs) > 0 || len(allocRegs) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d/%d benchmarks within %.0f%% of %s\n",
			len(ref.Benchmarks)-len(missing), len(ref.Benchmarks), *tolerance*100, *compare)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if *compare == "" {
			os.Stdout.Write(enc)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks, %d speedups)\n", *out, len(rep.Benchmarks), len(rep.Speedups))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
