// Command freshperf is the repository's end-to-end and per-layer benchmark
// of the freshd serving path. It writes the tenant worlds as snapio
// snapshots, stands freshd (and for query-hot, freshgate) up in-process on
// loopback, drives one workload from two closed-loop client goroutines,
// checks every property the workload was designed to show plus the served
// answers against the library's cold path, and prints its metrics. With
// -trace 1 it also replays the workload's seeded stream through the
// layers' public functions with harness-side spans and reports per-layer
// metrics instead.
//
// Usage (from the repository root, which run.sh builds it in):
//
//	bash freshperf/run.sh --workload query-miss --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list every
// metric with its unit and sample count. Any failed check exits non-zero.
// See README.md for the workloads and the span-dump format.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"freshsource/internal/obs"
	"freshsource/internal/snapio"
	"freshsource/internal/timeline"
)

// workloadBudget bounds one whole run, set-up and checks included.
const workloadBudget = 150 * time.Second

// Load shape shared by every workload.
const (
	clients = 2  // closed-loop client goroutines, one keep-alive connection each
	setups  = 15 // full set-ups per run; setup_s is their median
	warmup  = 500 * time.Millisecond
)

// Ingest feed schedule: one epoch every feedPeriod, the reads between
// slots separated by feedThink. A 30 s run commits 119 epochs, enough for
// a commit p90, and each read kind misses on about 11–17% of its reads.
const (
	feedPeriod = 250 * time.Millisecond
	feedThink  = 6 * time.Millisecond
)

// endToEnd and perLayer are the metrics the result line carries without
// and with -trace, in BENCHMARK.json order.
// The tails are p95s: on a 2-vCPU host shared with other machines' load,
// p99s spread 22–36% across ten seeds on query-hot and ingest, beyond any
// usable bound, while p95s spread 4–12%. The p99s are still printed.
var endToEnd = []string{
	"setup_s", "select_p50_ms", "select_p95_ms", "quality_p50_ms", "quality_p95_ms",
	"throughput_rps", "heap_mb",
}

var workloadNames = []string{"query-miss", "query-hot", "ingest"}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	// smoke tolerates percentiles reported from too few samples, for
	// seconds-long test runs.
	smoke bool
}

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("freshperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request streams")
	secs := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload with layer spans and reports per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for per-run temp dirs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	if !slices.Contains(workloadNames, cfg.workload) || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "freshperf: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "freshperf: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "freshperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	watchdog := time.AfterFunc(workloadBudget, func() {
		fmt.Fprintf(stderr, "freshperf: workload %s exceeded its %v wall-clock budget\n", cfg.workload, workloadBudget)
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runWorkload(ctx, cfg, tmp, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "freshperf: workload %s: %v\n", cfg.workload, err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run through its phases.
type runner struct {
	cfg config
	tmp string
	out io.Writer

	// Inputs.
	shape   queryShape
	dirs    []string
	epochs  []feedEpoch // ingest feed, epoch 0 is sent in the preflight
	bodies  [][][]byte  // observe bodies per epoch
	horizon timeline.Tick
	miss    *missGen
	keys    *keySet // hot keys of query-hot and ingest
	reads   *stream

	// Live state.
	dep       *deployment
	setupSecs []float64
	heapMB    float64
	checked   []answered    // query-miss preflight responses, for the output check
	fed       int           // epochs posted and committed, preflight included
	watermark timeline.Tick // of the last successful commit

	// Timed phase.
	t              *tally
	elapsed        time.Duration
	before, after  obs.Snapshot
	memBef, memAft runtime.MemStats

	rep   report
	fails []string
	notes []string
}

func runWorkload(ctx context.Context, cfg config, tmp string, out io.Writer) (*result, error) {
	r := &runner{cfg: cfg, tmp: tmp, out: out}
	fmt.Fprintf(out, "freshperf workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d numcpu=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	type step struct {
		name string
		fn   func(context.Context) error
	}
	steps := []step{
		{"inputs", r.prepare},
		{"set-up", r.setup},
		{"preflight", r.preflight},
		{"warm-up", r.warm},
		{"timed phase", r.timed},
		{"self-check", r.selfCheck},
		{"output check", r.outputCheck},
	}
	if cfg.trace {
		steps = append(steps, step{"traced replay", r.replay})
	}
	defer func() {
		if r.dep != nil {
			r.dep.stop()
		}
	}()
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if err := s.fn(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return r.result(), nil
}

// prepare generates the run's inputs from the seed and writes the
// snapshots. Generation is not timed.
func (r *runner) prepare(context.Context) error {
	snapDir := filepath.Join(r.tmp, "snap")
	if r.cfg.workload == "ingest" {
		epochs := int(r.cfg.seconds/feedPeriod) + 4
		fw, err := ingestWorld(epochs)
		if err != nil {
			return err
		}
		dir, err := writeSnapshot(snapDir, feedTenant, fw.snap)
		if err != nil {
			return err
		}
		r.dirs, r.epochs, r.horizon = []string{dir}, fw.epochs, fw.snap.Horizon()
		for _, ep := range fw.epochs {
			r.bodies = append(r.bodies, observeBodies(ep))
		}
		r.keys = newFeedKeys(subSeed(r.cfg.seed, "feed-keys", 0))
		r.reads = newZipfStream(subSeed(r.cfg.seed, "feed-reads", 0), r.keys, feedZipf)
		return nil
	}
	r.shape.names = queryNames()
	for i, name := range r.shape.names {
		d, err := queryWorld(i)
		if err != nil {
			return err
		}
		dir, err := writeSnapshot(snapDir, name, d)
		if err != nil {
			return err
		}
		r.dirs = append(r.dirs, dir)
		if i == 0 {
			r.shape.nsrc = len(d.Sources)
			for t := d.T0 + 1; t < d.Horizon(); t++ {
				r.shape.window = append(r.shape.window, int64(t))
			}
		}
	}
	if r.cfg.workload == "query-miss" {
		r.miss = newMissGen(subSeed(r.cfg.seed, "miss", 0), r.shape)
		r.reads = &stream{next: r.miss.next}
		return nil
	}
	r.keys = newHotKeys(subSeed(r.cfg.seed, "hot-keys", 0), r.shape)
	r.reads = newZipfStream(subSeed(r.cfg.seed, "hot-reads", 0), r.keys, hotZipf)
	return nil
}

// deploy performs one full set-up from the snapshots on disk.
func (r *runner) deploy(k int) (*deployment, error) {
	switch r.cfg.workload {
	case "query-miss":
		return setupQuery(r.dirs, r.shape.names, false)
	case "query-hot":
		return setupQuery(r.dirs, r.shape.names, true)
	default:
		return setupIngest(r.dirs[0], filepath.Join(r.tmp, "log", fmt.Sprint(k)))
	}
}

// setup times repeated cold set-ups and keeps the last one serving.
func (r *runner) setup(context.Context) error {
	for k := 0; k < setups; k++ {
		runtime.GC()
		start := time.Now()
		dep, err := r.deploy(k)
		if err != nil {
			return err
		}
		r.setupSecs = append(r.setupSecs, time.Since(start).Seconds())
		if k == setups-1 {
			r.dep = dep
		} else if err := dep.stop(); err != nil {
			return err
		}
	}
	return nil
}

// tenants lists the workload's tenant names.
func (r *runner) tenants() []string {
	if r.cfg.workload == "ingest" {
		return []string{feedTenant}
	}
	return r.shape.names
}

// preflight sends one request per endpoint per tenant before any timing,
// so a broken deployment fails fast with the endpoint named.
func (r *runner) preflight(ctx context.Context) error {
	c := newClient(r.dep.url)
	defer c.close()
	for _, name := range r.tenants() {
		code, body, err := c.get("/v1/sources?tenant=" + name)
		if err != nil || code != 200 {
			return fmt.Errorf("GET /v1/sources?tenant=%s: HTTP %d %v %s", name, code, err, body)
		}
	}
	// On query-hot, touching every hot key is also the warm-up that makes
	// the timed phase all cache hits.
	var ops []op
	if r.miss != nil {
		ops = r.miss.preflight()
	} else {
		ops = r.keys.all()
	}
	t := newTally()
	for _, o := range ops {
		o.check = r.cfg.workload == "query-miss"
		c.read(o, t)
	}
	r.checked = t.checked
	if r.cfg.workload == "ingest" {
		if err := r.feedEpoch(ctx, c, t); err != nil {
			return err
		}
	}
	if t.failed > 0 {
		return fmt.Errorf("%d of %d requests failed: %s", t.failed, t.ops, strings.Join(t.errs, "; "))
	}
	return nil
}

// feedEpoch posts the next feed epoch's observations and commits it,
// recording into t.
func (r *runner) feedEpoch(ctx context.Context, c *client, t *tally) error {
	if r.fed >= len(r.epochs) {
		return errors.New("the feed ran out of epochs")
	}
	for _, b := range r.bodies[r.fed] {
		c.observe(b, t)
	}
	start := time.Now()
	info, err := r.dep.backends[0].srv.CommitTenantEpoch(ctx, feedTenant)
	ms := sinceMs(start)
	t.ops++
	r.fed++
	switch {
	case err != nil:
		t.fail("commit epoch %d: %v", r.fed, err)
	case info == nil:
		t.fail("commit epoch %d: nothing to commit", r.fed)
	default:
		t.lat["commit"] = append(t.lat["commit"], ms)
		t.commits++
		r.watermark = timeline.Tick(info.Watermark)
	}
	return nil
}

// loop runs client i's closed loop until end. Client 0 of the ingest
// workload also carries the feed: at each slot of the epoch schedule it
// posts that epoch's observations and commits them.
func (r *runner) loop(ctx context.Context, i int, c *client, start, end time.Time, t *tally) {
	feed := r.cfg.workload == "ingest" && i == 0 && t != nil
	if t == nil {
		t = newTally()
	}
	slot := 1
	due := start.Add(feedPeriod)
	for now := time.Now(); now.Before(end) && ctx.Err() == nil; now = time.Now() {
		if feed && !now.Before(due) {
			t.late = append(t.late, float64(now.Sub(due).Nanoseconds())/1e6)
			if err := r.feedEpoch(ctx, c, t); err != nil {
				t.fail("%v", err)
				return
			}
			slot++
			due = start.Add(time.Duration(slot) * feedPeriod)
			continue
		}
		c.read(r.reads.take(), t)
		if r.cfg.workload == "ingest" {
			think := feedThink
			if feed {
				think = min(think, time.Until(due))
			}
			if think > 0 {
				time.Sleep(think)
			}
		}
	}
}

// warm runs the clients untimed for a moment so connections, caches and
// the heap reach their steady state before the heap reading and timing.
func (r *runner) warm(ctx context.Context) error {
	cs := r.clients()
	defer closeAll(cs)
	start := time.Now()
	if err := r.drive(ctx, cs, start, start.Add(warmup), nil); err != nil {
		return err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapMB = float64(m.HeapAlloc) / (1 << 20)
	return nil
}

func (r *runner) clients() []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(r.dep.url)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// drive runs every client's loop between start and end and merges their
// tallies into t (nil discards them). A client that panics ends the run
// with an error rather than the process, so the run's temp dir is still
// removed.
func (r *runner) drive(ctx context.Context, cs []*client, start, end time.Time, t *tally) error {
	var wg sync.WaitGroup
	ts := make([]*tally, len(cs))
	panics := make([]any, len(cs))
	for i, c := range cs {
		if t != nil {
			ts[i] = newTally()
		}
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			r.loop(ctx, i, c, start, end, ts[i])
		}(i, c)
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			return fmt.Errorf("client %d panicked: %v", i, p)
		}
	}
	if t != nil {
		for _, o := range ts {
			t.merge(o)
		}
	}
	return nil
}

// timed runs the measured phase with tracing off.
func (r *runner) timed(ctx context.Context) error {
	cs := r.clients()
	defer closeAll(cs)
	// Open each client's connection before the clock starts.
	for _, c := range cs {
		if code, _, err := c.get("/healthz"); err != nil || code != 200 {
			return fmt.Errorf("healthz before timing: HTTP %d %v", code, err)
		}
	}
	r.t = newTally()
	r.before = obs.Active().Snapshot()
	runtime.ReadMemStats(&r.memBef)
	start := time.Now()
	err := r.drive(ctx, cs, start, start.Add(r.cfg.seconds), r.t)
	r.elapsed = time.Since(start)
	runtime.ReadMemStats(&r.memAft)
	r.after = obs.Active().Snapshot()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	t := r.t
	r.rep.add("setup_s", "s", median(r.setupSecs), len(r.setupSecs))
	r.rep.addPercentiles("select", t.lat["select"], 50, 95, 99)
	r.rep.addPercentiles("quality", t.lat["quality"], 50, 95, 99)
	reads := len(t.lat["select"]) + len(t.lat["quality"])
	r.rep.add("throughput_rps", "1/s", float64(reads)/r.elapsed.Seconds(), reads)
	r.rep.add("heap_mb", "MB", r.heapMB, 0)
	if r.cfg.workload == "ingest" {
		r.rep.addPercentiles("observe", t.lat["observe"], 50, 99)
		r.rep.addPercentiles("commit", t.lat["commit"], 50, 90)
	}
	r.rep.add("error_ratio", "ratio", float64(t.failed)/float64(max(t.ops, 1)), t.ops)
	return nil
}

// delta returns how much an obs counter moved during the timed phase.
func (r *runner) delta(name string) int64 { return r.after.Counters[name] - r.before.Counters[name] }

// deltaSum sums the timed-phase movement of every counter named
// prefix…suffix.
func (r *runner) deltaSum(prefix, suffix string) int64 {
	var n int64
	for name, v := range r.after.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v - r.before.Counters[name]
		}
	}
	return n
}

func (r *runner) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.notes = append(r.notes, "ok: "+msg)
	} else {
		r.fails = append(r.fails, msg)
	}
}

// selfCheck verifies that the workload showed the property it was built
// for, and that no operation failed.
func (r *runner) selfCheck(context.Context) error {
	t := r.t
	r.check(t.failed == 0, "%d of %d operations failed %s", t.failed, t.ops, strings.Join(t.errs, "; "))
	if len(r.rep.thin) > 0 && !r.cfg.smoke {
		r.fails = append(r.fails, "percentiles without 10 samples beyond them: "+strings.Join(r.rep.thin, ", "))
	}
	hits, misses := r.delta("serve.registry.result_hits"), r.delta("serve.registry.result_misses")
	followers := r.deltaSum("serve.tenant.", ".followers")
	switch r.cfg.workload {
	case "query-miss":
		r.check(hits == 0, "result-cache hits %d (want 0: every key is unique)", hits)
		r.check(followers == 0, "coalesce followers %d (want 0)", followers)
	case "query-hot":
		ratio := float64(hits) / float64(max(hits+misses, 1))
		r.check(ratio >= 0.99, "result-cache hit ratio %.4f over %d lookups (want >= 0.99)", ratio, hits+misses)
		fo := r.delta("gate.failovers")
		r.check(fo == 0, "gate failovers %d (want 0)", fo)
	default:
		srv := r.dep.backends[0].srv
		tn, err := srv.Tenant(feedTenant)
		if err != nil {
			return err
		}
		commits := 1 + t.commits // the preflight epoch and the timed ones
		r.check(tn.Generation() == uint64(1+commits), "generation %d after %d commits (want 1 + commits)", tn.Generation(), commits)
		r.check(r.watermark < r.horizon-1, "watermark %d inside the window (horizon %d)", r.watermark, r.horizon)
		for _, kind := range []string{"select", "quality"} {
			n := len(t.lat[kind])
			missed := r.deltaSum("serve.tenant."+feedTenant+".coalesce."+kind+".", "")
			share := float64(missed) / float64(max(n, 1))
			r.check(share >= 0.075 && share <= 0.35,
				"%s miss share %.3f over %d reads (want 0.075..0.35: p50 among hits, p95 and p99 among misses)", kind, share, n)
		}
	}
	return nil
}

// outputCheck compares served answers with the library's cold path: a
// seeded sample of query-miss responses, every query-hot key read through
// the gate, and the ingest hot keys on the final generation against a cold
// fit over the snapshot plus every streamed observation.
func (r *runner) outputCheck(ctx context.Context) error {
	var todo []answered
	refs := map[string]*reference{}
	switch r.cfg.workload {
	case "query-miss":
		todo = append(r.checked, r.t.checked...)
	default:
		c := newClient(r.dep.url)
		defer c.close()
		for _, o := range r.keys.all() {
			code, body, err := c.post(o.path(), o.body)
			if err != nil || code != 200 {
				return fmt.Errorf("%s %s: HTTP %d %v %s", o.kind, o.tenant, code, err, body)
			}
			todo = append(todo, answered{op: o, body: append([]byte(nil), body...)})
		}
	}
	for i, name := range r.tenants() {
		d, err := snapio.Read(r.dirs[i])
		if err != nil {
			return err
		}
		if r.cfg.workload == "ingest" {
			if d, err = streamedDataset(d, r.epochs[:r.fed], r.watermark); err != nil {
				return err
			}
		}
		refs[name] = newReference(d)
	}
	counts := map[string]int{}
	var mismatches []string
	for _, a := range todo {
		counts[a.op.kind]++
		if err := refs[a.op.tenant].verify(ctx, a.op, a.body); err != nil {
			mismatches = append(mismatches, err.Error())
		}
	}
	if len(mismatches) > 0 {
		r.fails = append(r.fails, fmt.Sprintf("%d of %d checked responses differ from the cold-path reference:\n%s",
			len(mismatches), len(todo), strings.Join(mismatches, "\n")))
		return nil
	}
	r.check(len(todo) > 0, "%d select and %d quality responses match the cold-path reference", counts["select"], counts["quality"])
	return nil
}

func (r *runner) result() *result {
	for _, m := range r.rep.metrics {
		fmt.Fprintf(r.out, "  %-36s %14.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(r.out, "  "+n)
	}
	for _, f := range r.fails {
		fmt.Fprintln(r.out, "  FAIL: "+f)
	}
	names := endToEnd
	if r.cfg.trace {
		names = perLayerNames()
	}
	res := &result{Correct: len(r.fails) == 0, Attempted: r.t.ops, Failed: r.t.failed, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		m, _ := r.rep.get(name)
		res.Metrics[name] = jsonMetric{Value: m.value, Unit: unitOf(name)}
	}
	return res
}
