// Package benchfmt defines the benchmark report format of the library
// microbenchmarks (BENCH_selection.json):
// cmd/benchjson parses `go test -bench` text into a Report and diffs
// Reports for the CI regression gate.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. Pkg is the package whose `pkg:`
// header most recently preceded the line — `go test -bench` over several
// packages emits one header block per package, so a report-level context
// entry can only describe a single-package run (older reports recorded
// whichever package parsed last, claiming e.g. internal/modelcache for the
// selection benchmarks). Reports written before the field existed simply
// lack it; the compare gate keys on Name and tolerates either layout.
type Benchmark struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Speedup compares one variant against its family's seq baseline.
type Speedup struct {
	Family  string  `json:"family"`
	Variant string  `json:"variant"`
	SeqNs   float64 `json:"seq_ns_per_op"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`
}

// Report is the emitted document.
type Report struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	Speedups   []Speedup         `json:"speedups,omitempty"`
}

// Regression is one benchmark that slowed past the tolerance.
type Regression struct {
	Name  string
	OldNs float64
	NewNs float64
	Ratio float64 // NewNs / OldNs
	Bound float64 // 1 + tolerance
}

// AllocRegression is one benchmark whose allocs/op grew past the
// tolerance. A zero-alloc reference admits no growth at any tolerance:
// zero-allocation paths are pinned exactly, since even one allocation per
// op is a qualitative change (a pool stopped reusing, a value escaped).
type AllocRegression struct {
	Name      string
	OldAllocs int64
	NewAllocs int64
	Bound     int64 // max admissible NewAllocs
}

var lineRe = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// Parse scans `go test -bench` output into a report (context lines and
// benchmark result lines; everything else is ignored). Each benchmark is
// stamped with the package header in effect at its line; the report-level
// Context["pkg"] is set only when the whole run came from one package, so
// a multi-package run never misattributes its benchmarks to the package
// that happened to print last.
func Parse(r io.Reader) (Report, error) {
	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	pkg := ""
	pkgs := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				rep.Context[key] = v
			}
		}
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = v
			pkgs[v] = true
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Benchmark{Name: m[1], Pkg: pkg, Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			v, _ := strconv.ParseInt(m[4], 10, 64)
			b.BytesPerOp = &v
		}
		if m[5] != "" {
			v, _ := strconv.ParseInt(m[5], 10, 64)
			b.AllocsPerOp = &v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if len(pkgs) == 1 {
		rep.Context["pkg"] = pkg
	}
	return rep, sc.Err()
}

// splitFamily separates a benchmark name into its family and variant at
// the LAST slash, so nested families like ScaleCELF/15k/parallel group
// under ScaleCELF/15k rather than colliding every corpus size into one
// ScaleCELF family. Single-component names have no variant.
func splitFamily(name string) (fam, variant string, ok bool) {
	i := strings.LastIndex(name, "/")
	if i < 0 {
		return name, "", false
	}
	return name[:i], name[i+1:], true
}

// ComputeSpeedups fills rep.Speedups from the family baselines: Family/seq
// (or Family/scratch for the estimator micro-benchmarks, which name the
// from-scratch path that way).
func ComputeSpeedups(rep *Report) {
	base := map[string]float64{}
	for _, b := range rep.Benchmarks {
		fam, variant, ok := splitFamily(b.Name)
		if !ok {
			continue
		}
		if variant == "seq" || variant == "scratch" {
			base[fam] = b.NsPerOp
		}
	}
	for _, b := range rep.Benchmarks {
		fam, variant, ok := splitFamily(b.Name)
		if !ok || variant == "seq" || variant == "scratch" {
			continue
		}
		seq, ok := base[fam]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		rep.Speedups = append(rep.Speedups, Speedup{
			Family:  fam,
			Variant: variant,
			SeqNs:   seq,
			NsPerOp: b.NsPerOp,
			Speedup: seq / b.NsPerOp,
		})
	}
}

// Compare diffs the fresh run against a reference: every benchmark present
// in both must satisfy new ≤ old·(1+tolerance). Benchmarks only in the
// reference are returned as missing (reported, not fatal: renames and
// removals shouldn't hard-fail CI); benchmarks only in the fresh run are
// ignored.
func Compare(ref, fresh Report, tolerance float64) (regs []Regression, missing []string) {
	freshNs := make(map[string]float64, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshNs[b.Name] = b.NsPerOp
	}
	bound := 1 + tolerance
	for _, b := range ref.Benchmarks {
		ns, ok := freshNs[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		if ratio := ns / b.NsPerOp; ratio > bound {
			regs = append(regs, Regression{
				Name: b.Name, OldNs: b.NsPerOp, NewNs: ns, Ratio: ratio, Bound: bound,
			})
		}
	}
	return regs, missing
}

// CompareAllocs diffs allocs/op across runs: every benchmark reporting
// allocations in both must satisfy new ≤ ⌊old·(1+tolerance)⌋. Unlike the
// ns/op gate this is near-deterministic (allocation counts don't jitter
// with machine load), so the tolerance only absorbs iteration-count
// rounding; a reference of zero allocs/op is pinned exactly. Benchmarks
// without allocation columns on either side are ignored.
func CompareAllocs(ref, fresh Report, tolerance float64) []AllocRegression {
	freshAllocs := make(map[string]int64, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		if b.AllocsPerOp != nil {
			freshAllocs[b.Name] = *b.AllocsPerOp
		}
	}
	var regs []AllocRegression
	for _, b := range ref.Benchmarks {
		if b.AllocsPerOp == nil {
			continue
		}
		n, ok := freshAllocs[b.Name]
		if !ok {
			continue
		}
		bound := int64(float64(*b.AllocsPerOp) * (1 + tolerance))
		if n > bound {
			regs = append(regs, AllocRegression{
				Name: b.Name, OldAllocs: *b.AllocsPerOp, NewAllocs: n, Bound: bound,
			})
		}
	}
	return regs
}

// FasterPair is one require-faster constraint: the Fast benchmark's ns/op
// must come in strictly below the Slow one's within the same run. This is
// the inverse of the regression gate — it asserts a speedup exists at all,
// e.g. that the parallel CELF variant actually beats its sequential
// baseline on a multi-core profile.
type FasterPair struct {
	Fast string
	Slow string
}

// FasterViolation is one FasterPair the run failed.
type FasterViolation struct {
	Pair   FasterPair
	FastNs float64
	SlowNs float64
}

// ParseFasterPairs parses a "Fast<Slow,Fast<Slow" constraint list (the
// benchjson -require-faster flag syntax).
func ParseFasterPairs(s string) ([]FasterPair, error) {
	var pairs []FasterPair
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fast, slow, ok := strings.Cut(part, "<")
		if !ok || fast == "" || slow == "" {
			return nil, fmt.Errorf("require-faster pair %q: want Fast<Slow", part)
		}
		pairs = append(pairs, FasterPair{Fast: fast, Slow: slow})
	}
	return pairs, nil
}

// CheckFaster evaluates the pairs against the run. Pairs with either side
// absent are returned in skipped (quick bench profiles omit the full-scale
// families; absence is a note, not a failure — the full run still gates).
// Unlike the parallel-regression waiver this check is keyed on nothing:
// callers decide applicability (benchjson applies it only when the
// recorded gomaxprocs > 1, and never waives it for numcpu == 1).
func CheckFaster(rep Report, pairs []FasterPair) (viols []FasterViolation, skipped []FasterPair) {
	ns := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	for _, p := range pairs {
		fast, okF := ns[p.Fast]
		slow, okS := ns[p.Slow]
		if !okF || !okS {
			skipped = append(skipped, p)
			continue
		}
		if !(fast < slow) {
			viols = append(viols, FasterViolation{Pair: p, FastNs: fast, SlowNs: slow})
		}
	}
	return viols, skipped
}

// SingleCore reports whether the run had one usable core, per the
// gomaxprocs/numcpu context benchjson records. Parallel-variant speedups
// are meaningless there — the fan-out pays coordination cost with no
// parallelism to buy — so the compare gate skips regressions on variants
// named "parallel" for single-core runs.
func (r Report) SingleCore() bool {
	return r.Context["gomaxprocs"] == "1" || r.Context["numcpu"] == "1"
}

// SkipParallel partitions regressions into those still gated and the
// parallel-variant ones to waive on a single-core run (the benchmark's
// variant component contains "parallel").
func SkipParallel(regs []Regression) (kept []Regression, skipped []string) {
	for _, r := range regs {
		if strings.Contains(r.Name, "parallel") {
			skipped = append(skipped, r.Name)
			continue
		}
		kept = append(kept, r)
	}
	return kept, skipped
}
