package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/gate"
	"freshsource/internal/ingest"
	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/serve"
	"freshsource/internal/snapio"
	"freshsource/internal/timeline"
)

// layerMetric describes one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// solveClasses are the select classes whose solver work is reported
// separately.
var solveClasses = []string{"lazygreedy", "greedy", "maxsub", "lazygreedy-freq", "greedy-freq", "maxsub-freq"}

// perLayer lists the traced run's metrics in BENCHMARK.json order. A
// metric of a layer the workload does not reach reads 0.
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"snapio.read_ms", "ms", "lower"},
		{"serve.new_ms", "ms", "lower"},
		{"estimate.fit_ms", "ms", "lower"},
		{"serve.lookup_us", "us", "lower"},
		{"serve.problem_ms", "ms", "lower"},
		{"core.problem_ms", "ms", "lower"},
		{"serve.state_ms", "ms", "lower"},
		{"estimate.quality_ms", "ms", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.overhead_ms.select", "ms", "lower"},
		{"serve.overhead_ms.quality", "ms", "lower"},
		{"serve.result_hit_ratio", "ratio", "higher"},
		{"serve.coalesce_follower_ratio", "ratio", "higher"},
		{"serve.rewarm_misses_per_commit", "count", "lower"},
		{"serve.allocs_per_op", "count", "lower"},
		{"proc.gc_per_kop", "count", "lower"},
		{"serve.admission_rejected", "count", "lower"},
		{"gate.failovers", "count", "lower"},
		{"gate.hop_ms", "ms", "lower"},
		{"gate.rank_us", "us", "lower"},
	}
	for _, c := range solveClasses {
		ms = append(ms, layerMetric{"core.solve_ms." + c, "ms", "lower"})
	}
	for _, c := range solveClasses {
		ms = append(ms, layerMetric{"selection.oracle_calls." + c, "count", "lower"})
	}
	for _, c := range solveClasses {
		ms = append(ms, layerMetric{"selection.self_ms." + c, "ms", "lower"})
	}
	return append(ms,
		layerMetric{"gain.probe_us", "us", "lower"},
		layerMetric{"estimate.recurrence_steps_per_eval", "count", "lower"},
		layerMetric{"ingest.submit_us", "us", "lower"},
		layerMetric{"ingest.commit_ms", "ms", "lower"},
		layerMetric{"core.from_estimator_ms", "ms", "lower"},
		layerMetric{"modelcache.digest_ms", "ms", "lower"},
		layerMetric{"estimate.advance_ms", "ms", "lower"},
		layerMetric{"estimate.build_ms", "ms", "lower"},
		layerMetric{"ingest.append_ms", "ms", "lower"},
		layerMetric{"harness.late_p99_ms", "ms", "lower"},
		layerMetric{"trace.span_ns", "ns", "lower"},
	)
}()

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// unitOf returns the unit of a reported metric.
func unitOf(name string) string {
	switch name {
	case "setup_s":
		return "s"
	case "throughput_rps":
		return "1/s"
	case "heap_mb":
		return "MB"
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return "ms"
}

// span is one recorded interval of the traced replay. The spans of one
// request share Trace; a request's root span has Parent 0, and every call
// the replay makes into a layer is a child of it.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. It is used by one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
	trace int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// root opens a request's root span and returns its index.
func (tr *tracer) root(name, note string) int {
	tr.trace++
	tr.spans = append(tr.spans, span{Trace: tr.trace, ID: int64(len(tr.spans) + 1), Name: name, Note: note, Start: tr.now()})
	return len(tr.spans) - 1
}

// start opens a child span of the span at index parent.
func (tr *tracer) start(parent int, name string) int {
	p := tr.spans[parent]
	tr.spans = append(tr.spans, span{Trace: p.Trace, ID: int64(len(tr.spans) + 1), Parent: p.ID, Name: name, Start: tr.now()})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) { tr.spans[i].End = tr.now() }

// call records fn as a child span of parent and returns the span's index.
func (tr *tracer) call(parent int, name string, fn func()) int {
	i := tr.start(parent, name)
	fn()
	tr.end(i)
	return i
}

// spanCost measures the cost of recording one span.
func spanCost() float64 {
	const n = 200000
	tr := newTracer()
	tr.spans = make([]span, 0, n+1)
	root := tr.root("cost", "")
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start(root, "x"))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTenant is one tenant's world and registry in the replay.
type replayTenant struct {
	d   *dataset.Dataset
	reg *serve.Registry
}

// replayer walks a workload's seeded stream through the layers' public
// functions, in the order the freshd handlers call them, with a span
// around every call.
type replayer struct {
	ctx     context.Context
	tr      *tracer
	tenants map[string]*replayTenant
	pool    *gate.Pool // routes each request first when the workload runs through the gate

	// Per-request figures that spans alone do not carry.
	handler  map[int]float64 // root index → ms spent in the handler's own calls
	probeUs  map[int]float64 // root index → µs per ValueAdd probe
	calls    map[int]int     // root index → oracle calls of the solve
	steps    int64           // recurrence steps over all quality evaluations
	evals    int
	failures []string
}

// handlerCall is a call the freshd handler itself makes; the replay's
// other calls (standalone core.NewProblem and NewSetState, the probe sweep,
// the gate rank) isolate a layer and are not part of the handler path.
func (rp *replayer) handlerCall(root int, name string, fn func()) {
	i := rp.tr.call(root, name, fn)
	rp.handler[root] += rp.tr.spans[i].ms()
}

func (rp *replayer) fail(format string, args ...any) {
	if len(rp.failures) < 5 {
		rp.failures = append(rp.failures, fmt.Sprintf(format, args...))
	}
}

func counter(name string) int64 { return obs.Active().Counter(name).Value() }

// read replays one select or quality request.
func (rp *replayer) read(o op) {
	tn := rp.tenants[o.tenant]
	root := rp.tr.root(o.kind, o.class)
	defer rp.tr.end(root)
	if rp.pool != nil {
		rp.tr.call(root, "gate.Pool.Rank", func() { rp.pool.Rank(o.tenant) })
	}
	if o.kind == "select" {
		rp.selectReq(root, tn, o.sel)
	} else {
		rp.qualityReq(root, tn, o.qual)
	}
}

func (rp *replayer) selectReq(root int, tn *replayTenant, b *selectBody) {
	ctx, tr := rp.ctx, rp.tr
	ticks := resolveTicks(tn.d, b.Ticks, b.Future)
	raw, _ := json.Marshal(serve.SelectRequest{
		Algorithm: b.Algorithm, Gain: b.Gain, Metric: b.Metric, Divisors: b.Divisors, Budget: b.Budget,
		Kappa: 5, Rounds: 20, Seed: 1, Ticks: tickInts(ticks),
	})
	key := "s|" + string(raw)
	hit := false
	rp.handlerCall(root, "serve.Registry.CachedResult", func() { _, hit = tn.reg.CachedResult(key) })
	if hit {
		tr.spans[len(tr.spans)-1].Note = "hit"
		return
	}
	tr.spans[len(tr.spans)-1].Note = "miss"
	var trd *core.Trained
	var err error
	tr.call(root, "serve.Registry.Trained", func() { trd, err = tn.reg.Trained(ctx, b.Divisors) })
	g, gerr := serve.MakeGain(b.Gain, b.Metric, tn.d.World.NumEntities())
	if err != nil || gerr != nil {
		rp.fail("select trained/gain: %v %v", err, gerr)
		return
	}
	opts := core.ProblemOptions{Budget: b.Budget}
	tr.call(root, "core.NewProblem", func() { _, err = core.NewProblem(trd, ticks, g, opts) })
	var prob *core.Problem
	misses := counter("serve.registry.problem_misses")
	rp.handlerCall(root, "serve.Registry.Problem", func() {
		prob, err = tn.reg.Problem(ctx, b.Divisors, b.Gain, b.Metric, b.Budget, ticks)
	})
	if counter("serve.registry.problem_misses") > misses {
		tr.spans[len(tr.spans)-1].Note = "miss"
	}
	if err != nil {
		rp.fail("select problem: %v", err)
		return
	}
	class := tr.spans[root].Note
	var sel *core.Selection
	rp.handlerCall(root, "core.Problem.SolveContext", func() { sel, err = prob.SolveContext(ctx, core.Algorithm(b.Algorithm), core.SolveOptions{}) })
	tr.spans[len(tr.spans)-1].Note = class
	if err != nil {
		rp.fail("select solve: %v", err)
		return
	}
	rp.calls[root] = sel.OracleCalls

	pf := prob.Profit()
	var st any
	tr.call(root, "gain.Profit.BeginAdd", func() { st = pf.BeginAdd(sel.Set) })
	in := map[int]bool{}
	for _, x := range sel.Set {
		in[x] = true
	}
	n := trd.NumCandidates()
	i := tr.call(root, "gain.Profit.ValueAdd", func() {
		for x := 0; x < n; x++ {
			if !in[x] {
				pf.ValueAdd(st, x)
			}
		}
	})
	rp.probeUs[root] = tr.spans[i].ms() * 1e3 / float64(n-len(in))

	resp := serve.SelectResponse{
		Algorithm: string(sel.Algorithm), Set: nonNil(sel.Set), Names: nonNil(sel.Names), Divisors: nonNil(sel.Divisors),
		Profit: sel.Profit, Gain: sel.Gain, AvgCoverage: sel.AvgCoverage, AvgAccuracy: sel.AvgAccuracy,
		OracleCalls: sel.OracleCalls, Ticks: tickInts(ticks),
	}
	var body []byte
	rp.handlerCall(root, "json.Marshal", func() { body, _ = json.Marshal(resp) })
	rp.handlerCall(root, "serve.Registry.PutResult", func() { tn.reg.PutResult(key, append(body, '\n')) })
}

func (rp *replayer) qualityReq(root int, tn *replayTenant, b *qualityBody) {
	ctx, tr := rp.ctx, rp.tr
	ticks := resolveTicks(tn.d, b.Ticks, b.Future)
	raw, _ := json.Marshal(serve.QualityRequest{Set: b.Set, Divisors: b.Divisors, Ticks: tickInts(ticks)})
	key := "q|" + string(raw)
	hit := false
	rp.handlerCall(root, "serve.Registry.CachedResult", func() { _, hit = tn.reg.CachedResult(key) })
	if hit {
		tr.spans[len(tr.spans)-1].Note = "hit"
		return
	}
	tr.spans[len(tr.spans)-1].Note = "miss"
	var trd *core.Trained
	var err error
	rp.handlerCall(root, "serve.Registry.Trained", func() { trd, err = tn.reg.Trained(ctx, b.Divisors) })
	if err != nil {
		rp.fail("quality trained: %v", err)
		return
	}
	var st *estimate.SetState
	misses := counter("serve.registry.state_misses")
	rp.handlerCall(root, "serve.Registry.State", func() { st, _, err = tn.reg.State(ctx, b.Divisors, b.Set) })
	if counter("serve.registry.state_misses") > misses {
		tr.spans[len(tr.spans)-1].Note = "miss"
	}
	if err != nil {
		rp.fail("quality state: %v", err)
		return
	}
	tr.call(root, "estimate.Estimator.NewSetState", func() { trd.Est.NewSetState(b.Set) })
	var qs []estimate.QualityEstimate
	steps := counter("estimate.recurrence.steps")
	rp.handlerCall(root, "estimate.Estimator.QualityMultiState", func() { qs = trd.Est.QualityMultiState(st, ticks) })
	rp.steps += counter("estimate.recurrence.steps") - steps
	rp.evals++

	resp := qualityResponse(b.Set, ticks, qs)
	var body []byte
	rp.handlerCall(root, "json.Marshal", func() { body, _ = json.Marshal(resp) })
	rp.handlerCall(root, "serve.Registry.PutResult", func() { tn.reg.PutResult(key, append(body, '\n')) })
}

// replayCacheEntries is the registry bound of the replay: freshd's default
// for corpora of up to 2,048 sources, which every workload's tenants are.
const replayCacheEntries = 4096

// hotReplayCap bounds the query-hot replay, whose requests are cheap
// enough that the time bound alone would dump hundreds of thousands of
// spans.
const hotReplayCap = 20000

// replayBudget bounds the request part of the replay.
func (r *runner) replayBudget() time.Duration { return min(r.cfg.seconds/2, 8*time.Second) }

// replay is the traced run: set-up spans per tenant, then the workload's
// seeded stream (or, for ingest, its feed epochs and the reads between
// them) through the layers with a span around every call. It writes the
// spans and reports the per-layer metrics.
func (r *runner) replay(ctx context.Context) error {
	var hopMs float64
	if r.cfg.workload == "query-hot" {
		var err error
		if hopMs, err = r.gateHop(ctx); err != nil {
			return err
		}
	}
	rp := &replayer{
		ctx: ctx, tr: newTracer(), tenants: map[string]*replayTenant{},
		handler: map[int]float64{}, probeUs: map[int]float64{}, calls: map[int]int{},
	}
	for i, name := range r.tenants() {
		d, err := r.replaySetup(ctx, rp.tr, name, r.dirs[i])
		if err != nil {
			return err
		}
		reg := serve.NewRegistry(ctx, d, replayCacheEntries, 0, nil)
		if _, err := reg.Trained(ctx, nil); err != nil {
			return err
		}
		rp.tenants[name] = &replayTenant{d: d, reg: reg}
	}
	deadline := time.Now().Add(r.replayBudget())
	switch r.cfg.workload {
	case "query-miss":
		g := newMissGen(subSeed(r.cfg.seed, "miss", 0), r.shape)
		for _, o := range g.preflight() {
			rp.read(o)
		}
		for n := 0; n < r.t.ops && time.Now().Before(deadline); n++ {
			rp.read(g.next())
		}
	case "query-hot":
		rp.pool = r.dep.gw.pool
		for _, o := range r.keys.all() {
			rp.read(o)
		}
		s := newZipfStream(subSeed(r.cfg.seed, "hot-reads", 0), r.keys, hotZipf)
		for n := 0; n < r.t.ops && n < hotReplayCap && time.Now().Before(deadline); n++ {
			rp.read(s.take())
		}
	default:
		if err := r.replayFeed(rp, deadline); err != nil {
			return err
		}
	}
	for _, tn := range rp.tenants {
		tn.reg.Close()
	}
	if len(rp.failures) > 0 {
		return fmt.Errorf("replay: %s", strings.Join(rp.failures, "; "))
	}
	path := filepath.Join(r.cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := rp.tr.write(path); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("trace: %d spans written to %s", len(rp.tr.spans), path))
	r.layerMetrics(rp, hopMs)
	return nil
}

// replaySetup records the set-up of one tenant: the snapshot read, the
// cold fit, and a whole single-tenant freshd construction.
func (r *runner) replaySetup(ctx context.Context, tr *tracer, name, dir string) (*dataset.Dataset, error) {
	root := tr.root("setup", name)
	defer tr.end(root)
	var d *dataset.Dataset
	var err error
	if tr.call(root, "snapio.Read", func() { d, err = snapio.Read(dir) }); err != nil {
		return nil, err
	}
	if tr.call(root, "core.TrainContext", func() { _, err = core.TrainContext(ctx, d.World, d.Sources, d.T0, core.TrainOptions{}) }); err != nil {
		return nil, err
	}
	cfg := serve.Config{DefaultTenant: name}
	if r.cfg.workload == "ingest" {
		cfg.IngestEpoch, cfg.IngestDir = time.Hour, filepath.Join(r.tmp, "replay-serve-log")
	}
	var srv *serve.Server
	if tr.call(root, "serve.New", func() { srv, err = serve.New(d, cfg) }); err != nil {
		return nil, err
	}
	srv.Close()
	return d, nil
}

// replayFeed replays the ingest feed: each epoch through a shadow
// Ingester (Submit per batch, Commit), core.FromEstimator and
// modelcache.Digest as the server's commit does, then through an
// Accumulator and a Log directly; after it, a registry seeded like the
// new generation serves the reads that fell between two commits.
func (r *runner) replayFeed(rp *replayer, deadline time.Time) error {
	ctx, tr := rp.ctx, rp.tr
	base := rp.tenants[feedTenant]
	d := base.d
	in, err := ingest.New(ctx, d, ingest.Config{Dir: filepath.Join(r.tmp, "replay-ingest")})
	if err != nil {
		return err
	}
	defer in.Close()
	acc, err := estimate.NewAccumulator(ctx, d.World, d.Sources, d.T0, d.Horizon()-1, nil, estimate.FitOptions{})
	if err != nil {
		return err
	}
	lg, _, err := ingest.OpenLog(filepath.Join(r.tmp, "replay-log"))
	if err != nil {
		return err
	}
	defer lg.Close()
	s := newZipfStream(subSeed(r.cfg.seed, "feed-reads", 0), r.keys, feedZipf)
	perEpoch := max(1, (len(r.t.lat["select"])+len(r.t.lat["quality"]))/max(1, r.t.commits))
	for e := 0; e < r.fed && time.Now().Before(deadline); e++ {
		ep := r.epochs[e]
		root := tr.root("epoch", fmt.Sprint(ep.tick))
		for lo := 0; lo < len(ep.obs); lo += feedBatch {
			batch := ep.obs[lo:min(lo+feedBatch, len(ep.obs))]
			tr.call(root, "ingest.Ingester.Submit", func() { err = in.Submit(batch) })
			if err != nil {
				return err
			}
		}
		var sealed *ingest.Epoch
		if tr.call(root, "ingest.Ingester.Commit", func() { sealed, err = in.Commit(ctx) }); err != nil {
			return err
		}
		var trd *core.Trained
		if tr.call(root, "core.FromEstimator", func() { trd, err = core.FromEstimator(sealed.Est, sealed.Watermark, core.TrainOptions{}) }); err != nil {
			return err
		}
		tr.call(root, "modelcache.Digest", func() { modelcache.Digest(d.World, sealed.Sources) })
		in.Ack(sealed.Seq)

		perSource := make([][]timeline.Event, len(d.Sources))
		for _, o := range ep.obs {
			perSource[o.Source] = append(perSource[o.Source], o.Event)
		}
		if tr.call(root, "estimate.Accumulator.Advance", func() { err = acc.Advance(ctx, ep.tick, perSource) }); err != nil {
			return err
		}
		if tr.call(root, "estimate.Accumulator.Build", func() { _, err = acc.Build(ctx) }); err != nil {
			return err
		}
		rec := ingest.EpochRecord{Seq: uint64(e + 1), Watermark: ep.tick, Events: ep.obs}
		if tr.call(root, "ingest.Log.Append", func() { err = lg.Append(rec) }); err != nil {
			return err
		}
		tr.end(root)

		nd := &dataset.Dataset{Name: d.Name, World: d.World, Sources: sealed.Sources, T0: sealed.Watermark}
		reg := serve.NewRegistry(ctx, nd, replayCacheEntries, 0, nil)
		reg.SeedTrained(trd)
		rp.tenants[feedTenant] = &replayTenant{d: nd, reg: reg}
		for k := 0; k < perEpoch; k++ {
			rp.read(s.take())
		}
		reg.Close()
	}
	rp.tenants[feedTenant] = base
	return nil
}

// gateHop measures the p50 of the query-hot stream sent straight to each
// tenant's home backend, for comparison with the p50 through the gate.
func (r *runner) gateHop(ctx context.Context) (float64, error) {
	home := map[string]string{}
	for _, name := range r.shape.names {
		home[name] = r.dep.gw.pool.Rank(name)[0].Name()
	}
	t := newTally()
	end := time.Now().Add(min(r.cfg.seconds/4, 3*time.Second))
	direct := map[string]*client{}
	for _, b := range r.dep.backends {
		direct[b.url] = newClient(b.url)
	}
	s := newZipfStream(subSeed(r.cfg.seed, "hot-reads", 1), r.keys, hotZipf)
	for time.Now().Before(end) && ctx.Err() == nil {
		o := s.take()
		direct[home[o.tenant]].read(o, t)
	}
	for _, c := range direct {
		c.close()
	}
	if t.failed > 0 {
		return 0, fmt.Errorf("direct reads: %s", strings.Join(t.errs, "; "))
	}
	through := append(append([]float64(nil), r.t.lat["select"]...), r.t.lat["quality"]...)
	return median(through) - median(append(t.lat["select"], t.lat["quality"]...)), nil
}

// layerMetrics turns the replay's spans and the timed phase's counters
// into the per-layer metrics. Span figures are medians over the replay.
func (r *runner) layerMetrics(rp *replayer, hopMs float64) {
	byName := map[string][]float64{}
	var selHandler, qualHandler, probe []float64
	perClass := map[string][][3]float64{} // solve ms, oracle calls, self ms
	quality := map[int]float64{}          // quality root → NewSetState + QualityMultiState ms
	spans := rp.tr.spans
	for i, s := range spans {
		if s.Parent == 0 {
			switch s.Name {
			case "select":
				selHandler = append(selHandler, rp.handler[i])
			case "quality":
				qualHandler = append(qualHandler, rp.handler[i])
			}
			continue
		}
		key := s.Name
		if s.Note == "miss" {
			key += "/miss"
		}
		byName[key] = append(byName[key], s.ms())
		root := int(s.Parent) - 1 // children hang directly off their root
		switch s.Name {
		case "estimate.Estimator.NewSetState", "estimate.Estimator.QualityMultiState":
			quality[root] += s.ms()
		case "core.Problem.SolveContext":
			calls := float64(rp.calls[root])
			perClass[s.Note] = append(perClass[s.Note], [3]float64{s.ms(), calls, s.ms() - calls*rp.probeUs[root]/1e3})
		}
	}
	for _, v := range rp.probeUs {
		probe = append(probe, v)
	}
	qms := make([]float64, 0, len(quality))
	for _, v := range quality {
		qms = append(qms, v)
	}
	med := func(name string) float64 { return median(byName[name]) }
	add := func(name string, v float64) { r.rep.add(name, unitOf(name), v, 0) }

	add("snapio.read_ms", med("snapio.Read"))
	add("serve.new_ms", med("serve.New"))
	add("estimate.fit_ms", med("core.TrainContext"))
	add("serve.lookup_us", median(append(byName["serve.Registry.CachedResult"], byName["serve.Registry.CachedResult/miss"]...))*1e3)
	add("serve.problem_ms", med("serve.Registry.Problem/miss"))
	add("core.problem_ms", med("core.NewProblem"))
	add("serve.state_ms", med("serve.Registry.State/miss"))
	add("estimate.quality_ms", median(qms))
	add("serve.encode_us", med("json.Marshal")*1e3)
	add("serve.overhead_ms.select", median(r.t.lat["select"])-median(selHandler))
	add("serve.overhead_ms.quality", median(r.t.lat["quality"])-median(qualHandler))

	hits, misses := r.delta("serve.registry.result_hits"), r.delta("serve.registry.result_misses")
	add("serve.result_hit_ratio", ratio(hits, hits+misses))
	followers := r.deltaSum("serve.tenant.", ".followers")
	add("serve.coalesce_follower_ratio", ratio(followers, followers+r.deltaSum("serve.tenant.", ".leaders")))
	add("serve.rewarm_misses_per_commit", ratio(misses, int64(r.t.commits)))
	ops := int64(r.t.ops)
	add("serve.allocs_per_op", ratio(int64(r.memAft.Mallocs-r.memBef.Mallocs), ops))
	add("proc.gc_per_kop", 1e3*ratio(int64(r.memAft.NumGC-r.memBef.NumGC), ops))
	add("serve.admission_rejected", float64(r.delta("serve.admission.rejected")))
	add("gate.failovers", float64(r.delta("gate.failovers")))
	add("gate.hop_ms", hopMs)
	add("gate.rank_us", med("gate.Pool.Rank")*1e3)
	for _, c := range solveClasses {
		var solve, calls, self []float64
		for _, v := range perClass[c] {
			solve, calls, self = append(solve, v[0]), append(calls, v[1]), append(self, v[2])
		}
		add("core.solve_ms."+c, median(solve))
		add("selection.oracle_calls."+c, median(calls))
		add("selection.self_ms."+c, median(self))
	}
	add("gain.probe_us", median(probe))
	add("estimate.recurrence_steps_per_eval", ratio(rp.steps, int64(rp.evals)))
	add("ingest.submit_us", med("ingest.Ingester.Submit")*1e3)
	add("ingest.commit_ms", med("ingest.Ingester.Commit"))
	add("core.from_estimator_ms", med("core.FromEstimator"))
	add("modelcache.digest_ms", med("modelcache.Digest"))
	add("estimate.advance_ms", med("estimate.Accumulator.Advance"))
	add("estimate.build_ms", med("estimate.Accumulator.Build"))
	add("ingest.append_ms", med("ingest.Log.Append"))
	late := append([]float64(nil), r.t.late...)
	sort.Float64s(late)
	p99, _ := percentile(late, 0.99)
	add("harness.late_p99_ms", p99)
	add("trace.span_ns", spanCost())
}

// ratio is a/b, or 0 when b is 0 (the layer saw no such work).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
