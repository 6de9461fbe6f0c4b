package benchfmt

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: freshsource/internal/selection
cpu: Imaginary CPU @ 3.0GHz
BenchmarkGreedy/seq-16         	     100	  1000000 ns/op
BenchmarkGreedy/par4-16        	     400	   260000 ns/op	 1024 B/op	      12 allocs/op
BenchmarkGRASP/seq-16          	      50	  2000000 ns/op
BenchmarkGRASP/par4-16         	     200	   550000 ns/op
BenchmarkQualityMultiAdd/scratch-16	 300	    90000 ns/op
BenchmarkQualityMultiAdd/incremental-16	3000	     9000 ns/op
PASS
ok  	freshsource/internal/selection	12.345s
`

func parseSample(t *testing.T) Report {
	t.Helper()
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	ComputeSpeedups(&rep)
	return rep
}

func TestParse(t *testing.T) {
	rep := parseSample(t)
	if len(rep.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(rep.Benchmarks))
	}
	if rep.Context["goos"] != "linux" || rep.Context["cpu"] != "Imaginary CPU @ 3.0GHz" {
		t.Errorf("context: %v", rep.Context)
	}
	b := rep.Benchmarks[1]
	if b.Name != "Greedy/par4" || b.Iterations != 400 || b.NsPerOp != 260000 {
		t.Errorf("parsed line: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 1024 || b.AllocsPerOp == nil || *b.AllocsPerOp != 12 {
		t.Errorf("allocation columns: %+v", b)
	}
	if rep.Benchmarks[0].BytesPerOp != nil {
		t.Error("seq line should have no allocation columns")
	}
}

// TestParseMultiPackage pins the per-benchmark package capture: a run over
// several packages stamps each benchmark with the package whose header
// preceded it, and the report-level context carries no "pkg" entry (older
// parsers recorded whichever package printed last, claiming the whole run
// for it).
func TestParseMultiPackage(t *testing.T) {
	rep, err := Parse(strings.NewReader(`goos: linux
pkg: freshsource/internal/selection
BenchmarkGreedy/seq-2 	 100	 1000000 ns/op
BenchmarkScaleCELF/15k/seq-2 	 2	 500000000 ns/op
pkg: freshsource/internal/modelcache
BenchmarkCacheHit-2 	 5000	 20000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	for i, want := range []string{
		"freshsource/internal/selection",
		"freshsource/internal/selection",
		"freshsource/internal/modelcache",
	} {
		if got := rep.Benchmarks[i].Pkg; got != want {
			t.Errorf("benchmark %d (%s): pkg %q, want %q", i, rep.Benchmarks[i].Name, got, want)
		}
	}
	if v, ok := rep.Context["pkg"]; ok {
		t.Errorf("multi-package run recorded context pkg %q, want none", v)
	}

	// A single-package run still records the unambiguous context entry.
	one := parseSample(t)
	if one.Context["pkg"] != "freshsource/internal/selection" {
		t.Errorf("single-package context pkg = %q", one.Context["pkg"])
	}
	if one.Benchmarks[0].Pkg != "freshsource/internal/selection" {
		t.Errorf("single-package entry pkg = %q", one.Benchmarks[0].Pkg)
	}
}

// TestSpeedupsNestedFamily pins the last-slash family split: the Scale
// benchmarks nest the corpus size inside the family (ScaleCELF/15k/parallel),
// and each size must pair with its own seq baseline rather than all sizes
// collapsing into one ScaleCELF family.
func TestSpeedupsNestedFamily(t *testing.T) {
	rep := Report{Benchmarks: []Benchmark{
		{Name: "ScaleCELF/1k/seq", NsPerOp: 10e6},
		{Name: "ScaleCELF/1k/parallel", NsPerOp: 5e6},
		{Name: "ScaleCELF/15k/seq", NsPerOp: 900e6},
		{Name: "ScaleCELF/15k/parallel", NsPerOp: 300e6},
	}}
	ComputeSpeedups(&rep)
	if len(rep.Speedups) != 2 {
		t.Fatalf("speedups: %+v, want one per corpus size", rep.Speedups)
	}
	byFam := map[string]Speedup{}
	for _, s := range rep.Speedups {
		byFam[s.Family] = s
	}
	if s := byFam["ScaleCELF/1k"]; s.Variant != "parallel" || s.Speedup != 2 {
		t.Errorf("1k speedup: %+v", s)
	}
	if s := byFam["ScaleCELF/15k"]; s.SeqNs != 900e6 || s.Speedup != 3 {
		t.Errorf("15k speedup: %+v", s)
	}
}

// TestRequireFaster pins the -require-faster gate semantics: violated
// pairs (including exact ties) fail, satisfied pairs pass, and pairs whose
// benchmarks the run omitted are skipped, not failed — the quick bench
// profile must not trip the full-scale constraint.
func TestRequireFaster(t *testing.T) {
	pairs, err := ParseFasterPairs(" ScaleCELF/15k/parallel<ScaleCELF/15k/seq , Greedy/parallel+incr<Greedy/incr ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0].Fast != "ScaleCELF/15k/parallel" || pairs[1].Slow != "Greedy/incr" {
		t.Fatalf("parsed pairs: %+v", pairs)
	}
	if _, err := ParseFasterPairs("no-separator"); err == nil {
		t.Error("malformed pair accepted")
	}

	rep := Report{Benchmarks: []Benchmark{
		{Name: "ScaleCELF/15k/seq", NsPerOp: 900e6},
		{Name: "ScaleCELF/15k/parallel", NsPerOp: 300e6},
	}}
	viols, skipped := CheckFaster(rep, pairs)
	if len(viols) != 0 {
		t.Errorf("satisfied pair flagged: %+v", viols)
	}
	if len(skipped) != 1 || skipped[0].Fast != "Greedy/parallel+incr" {
		t.Errorf("skipped: %+v, want the absent Greedy pair", skipped)
	}

	rep.Benchmarks[1].NsPerOp = 900e6 // tie: parallel must be strictly faster
	viols, _ = CheckFaster(rep, pairs)
	if len(viols) != 1 || viols[0].Pair.Fast != "ScaleCELF/15k/parallel" || viols[0].SlowNs != 900e6 {
		t.Errorf("tie not flagged: %+v", viols)
	}
}

// TestParseFreshbenchLines pins lines without the -N GOMAXPROCS suffix,
// which a GOMAXPROCS=1 `go test -bench` run prints: they must parse into
// comparable benchmarks.
func TestParseFreshbenchLines(t *testing.T) {
	rep, err := Parse(strings.NewReader(
		"BenchmarkServe/select/p50 	 120	 1500000 ns/op\n" +
			"BenchmarkServe/select/p95 	 120	 9500000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Name != "Serve/select/p50" || rep.Benchmarks[0].NsPerOp != 1.5e6 {
		t.Errorf("parsed: %+v", rep.Benchmarks[0])
	}
	// No seq baseline in the family → no speedups, and no crash.
	ComputeSpeedups(&rep)
	if len(rep.Speedups) != 0 {
		t.Errorf("unexpected speedups: %+v", rep.Speedups)
	}
}

func TestComputeSpeedups(t *testing.T) {
	rep := parseSample(t)
	if len(rep.Speedups) != 3 {
		t.Fatalf("computed %d speedups, want 3", len(rep.Speedups))
	}
	byFam := map[string]Speedup{}
	for _, s := range rep.Speedups {
		byFam[s.Family] = s
	}
	if s := byFam["Greedy"]; s.Variant != "par4" || s.Speedup < 3.8 || s.Speedup > 3.9 {
		t.Errorf("Greedy speedup: %+v", s)
	}
	if s := byFam["QualityMultiAdd"]; s.SeqNs != 90000 || s.Speedup != 10 {
		t.Errorf("scratch baseline speedup: %+v", s)
	}
}

// TestCompareFailsTwoTimesRegression is the acceptance check for the CI
// gate: a synthetic 2× slowdown must be flagged as a regression at the
// default 25% tolerance.
func TestCompareFailsTwoTimesRegression(t *testing.T) {
	ref := parseSample(t)
	slowed, err := Parse(strings.NewReader(strings.ReplaceAll(
		sampleOutput, "1000000 ns/op", "2000001 ns/op")))
	if err != nil {
		t.Fatal(err)
	}
	regs, missing := Compare(ref, slowed, 0.25)
	if len(missing) != 0 {
		t.Errorf("missing: %v", missing)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions: %+v, want exactly the 2x one", regs)
	}
	r := regs[0]
	if r.Name != "Greedy/seq" || r.Ratio < 2 || r.Ratio > 2.1 || r.Bound != 1.25 {
		t.Errorf("regression: %+v", r)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	ref := parseSample(t)
	slightlySlower, err := Parse(strings.NewReader(strings.ReplaceAll(
		sampleOutput, "1000000 ns/op", "1200000 ns/op")))
	if err != nil {
		t.Fatal(err)
	}
	if regs, _ := Compare(ref, slightlySlower, 0.25); len(regs) != 0 {
		t.Errorf("20%% slowdown flagged at 25%% tolerance: %+v", regs)
	}
	// Faster is never a regression.
	if regs, _ := Compare(ref, parseSample(t), 0); len(regs) != 0 {
		t.Errorf("identical run flagged at zero tolerance: %+v", regs)
	}
}

func TestCompareReportsMissing(t *testing.T) {
	ref := parseSample(t)
	partial, err := Parse(strings.NewReader(
		"BenchmarkGreedy/seq-16 100 1000000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	regs, missing := Compare(ref, partial, 0.25)
	if len(regs) != 0 {
		t.Errorf("unexpected regressions: %+v", regs)
	}
	if len(missing) != 5 {
		t.Errorf("missing = %v, want the 5 absent benchmarks", missing)
	}
}

func allocs(n int64) *int64 { return &n }

func TestCompareAllocs(t *testing.T) {
	ref := Report{Benchmarks: []Benchmark{
		{Name: "ScaleProbe/1k", NsPerOp: 1500, AllocsPerOp: allocs(0)},
		{Name: "ScaleCELF/1k", NsPerOp: 1.5e6, AllocsPerOp: allocs(1000)},
		{Name: "Greedy/seq", NsPerOp: 1e6}, // no alloc column: ignored
	}}
	same := Report{Benchmarks: []Benchmark{
		{Name: "ScaleProbe/1k", NsPerOp: 1500, AllocsPerOp: allocs(0)},
		{Name: "ScaleCELF/1k", NsPerOp: 1.5e6, AllocsPerOp: allocs(1200)},
		{Name: "Greedy/seq", NsPerOp: 1e6, AllocsPerOp: allocs(50)},
	}}
	if regs := CompareAllocs(ref, same, 0.25); len(regs) != 0 {
		t.Errorf("within-tolerance growth flagged: %+v", regs)
	}
	grown := Report{Benchmarks: []Benchmark{
		{Name: "ScaleCELF/1k", NsPerOp: 1.5e6, AllocsPerOp: allocs(1300)},
	}}
	regs := CompareAllocs(ref, grown, 0.25)
	if len(regs) != 1 || regs[0].Name != "ScaleCELF/1k" || regs[0].Bound != 1250 {
		t.Errorf("26%% alloc growth not flagged at 25%% tolerance: %+v", regs)
	}
}

// TestCompareAllocsPinsZero is the acceptance check for the zero-alloc
// probe path: one allocation per op against a zero baseline fails at any
// tolerance.
func TestCompareAllocsPinsZero(t *testing.T) {
	ref := Report{Benchmarks: []Benchmark{
		{Name: "ScaleProbe/15k", NsPerOp: 1600, AllocsPerOp: allocs(0)},
	}}
	leaky := Report{Benchmarks: []Benchmark{
		{Name: "ScaleProbe/15k", NsPerOp: 1600, AllocsPerOp: allocs(1)},
	}}
	if regs := CompareAllocs(ref, leaky, 10.0); len(regs) != 1 {
		t.Errorf("1 alloc/op against zero-alloc baseline not flagged: %+v", regs)
	}
	if regs := CompareAllocs(ref, ref, 0); len(regs) != 0 {
		t.Errorf("zero against zero flagged: %+v", regs)
	}
}

func TestSingleCoreSkipsParallel(t *testing.T) {
	single := Report{Context: map[string]string{"gomaxprocs": "1", "numcpu": "1"}}
	multi := Report{Context: map[string]string{"gomaxprocs": "16", "numcpu": "16"}}
	bare := Report{Context: map[string]string{}}
	if !single.SingleCore() || multi.SingleCore() || bare.SingleCore() {
		t.Errorf("SingleCore: single=%v multi=%v bare=%v",
			single.SingleCore(), multi.SingleCore(), bare.SingleCore())
	}

	regs := []Regression{
		{Name: "Greedy/parallel+incr", Ratio: 2},
		{Name: "Greedy/seq", Ratio: 2},
	}
	kept, skipped := SkipParallel(regs)
	if len(kept) != 1 || kept[0].Name != "Greedy/seq" {
		t.Errorf("kept: %+v", kept)
	}
	if len(skipped) != 1 || skipped[0] != "Greedy/parallel+incr" {
		t.Errorf("skipped: %v", skipped)
	}
}
