package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"freshsource/internal/serve"
)

// selectBody and qualityBody are the request bodies the benchmark sends.
// They carry no execution-strategy fields (workers, cache, lazy): the
// server owns those, and a strict decoder rejects fields it no longer
// knows.
type selectBody struct {
	Algorithm string  `json:"algorithm"`
	Gain      string  `json:"gain"`
	Metric    string  `json:"metric"`
	Divisors  []int   `json:"divisors,omitempty"`
	Budget    float64 `json:"budget,omitempty"`
	Future    int     `json:"future,omitempty"`
	Ticks     []int64 `json:"ticks,omitempty"`
}

type qualityBody struct {
	Set      []int   `json:"set"`
	Divisors []int   `json:"divisors,omitempty"`
	Future   int     `json:"future,omitempty"`
	Ticks    []int64 `json:"ticks,omitempty"`
}

// op is one generated read request.
type op struct {
	kind   string // "select" or "quality"
	class  string // select: algorithm, "-freq" when it asks for divisors; quality: "quality"
	tenant string
	sel    *selectBody
	qual   *qualityBody
	body   []byte
	check  bool // keep the response for the output check
}

func (o op) path() string {
	return "/v1/" + o.kind + "?tenant=" + url.QueryEscape(o.tenant)
}

func selectOp(tenant, class string, b *selectBody) op {
	body, _ := json.Marshal(b) // plain struct of numbers and strings: cannot fail
	return op{kind: "select", class: class, tenant: tenant, sel: b, body: body}
}

func qualityOp(tenant string, b *qualityBody) op {
	body, _ := json.Marshal(b)
	return op{kind: "quality", class: "quality", tenant: tenant, qual: b, body: body}
}

// freqDivisors is the divisor list of the frequency-variant selects
// (Definition 4): every source gains a half-rate variant and selection
// runs under the one-version-per-source matroid.
var freqDivisors = []int{2}

// Request mix of every workload: 3 selects to 2 quality requests, drawn as
// shuffled blocks so each run's mix is exact rather than sampled.
var kindBlock = []string{"select", "select", "select", "quality", "quality"}

// selectBlock is the query-miss select class mix: each algorithm at 11/36
// and its frequency-variant form at 1/36, so a twelfth of all selects run
// the matroid-constrained search over 2k candidates. That exercises every
// frequency-variant class in each run, while the long maxsub-freq searches
// (50–100 ms) stay few enough not to dominate the select tail.
var selectBlock = func() []string {
	var b []string
	for i := 0; i < 11; i++ {
		b = append(b, "lazygreedy", "greedy", "maxsub")
	}
	return append(b, "lazygreedy-freq", "greedy-freq", "maxsub-freq")
}()

// block draws from a fixed multiset in shuffled rounds.
type block struct {
	items []string
	left  []string
}

func (b *block) draw(rng *rand.Rand) string {
	if len(b.left) == 0 {
		b.left = append(b.left[:0], b.items...)
		rng.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	x := b.left[len(b.left)-1]
	b.left = b.left[:len(b.left)-1]
	return x
}

// stream is a workload's seeded request sequence, shared by its clients:
// the sequence is fixed by the seed, while which client sends which
// request depends on timing.
type stream struct {
	mu   sync.Mutex
	next func() op
}

func (s *stream) take() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// queryShape is what the query generators need to know about the tenants.
type queryShape struct {
	names  []string
	nsrc   int     // candidates per tenant without frequency variants
	window []int64 // evaluation ticks (T0, horizon−1]
}

// Query-miss request parameters.
const (
	missBudget = 0.01 // selections hold 2–4 of ~1,000 sources
	missTicks  = 4    // ticks per request, out of the 6-tick window
	missMaxSet = 8    // quality sets hold 1..missMaxSet candidates
	checkShare = 0.02 // share of responses kept for the output check
)

// missGen generates query-miss requests whose canonical keys are all
// distinct: each select's budget carries its sequence number in the 9th
// decimal place (far below anything that changes a selection), and quality
// (set, ticks) keys are redrawn on collision.
type missGen struct {
	rng    *rand.Rand
	shape  queryShape
	kinds  block
	cls    block
	seq    int
	seen   map[string]bool
	checks bool
}

func newMissGen(seed int64, shape queryShape) *missGen {
	return &missGen{
		rng: rand.New(rand.NewSource(seed)), shape: shape,
		kinds: block{items: kindBlock}, cls: block{items: selectBlock},
		seen: map[string]bool{}, checks: true,
	}
}

func (g *missGen) ticks() []int64 {
	idx := g.rng.Perm(len(g.shape.window))[:missTicks]
	sort.Ints(idx)
	out := make([]int64, len(idx))
	for i, j := range idx {
		out[i] = g.shape.window[j]
	}
	return out
}

func (g *missGen) selectOp(tenant, class string) op {
	g.seq++
	b := &selectBody{
		Algorithm: strings.TrimSuffix(class, "-freq"), Gain: "linear", Metric: "coverage",
		Budget: missBudget + float64(g.seq)*1e-9, Ticks: g.ticks(),
	}
	if strings.HasSuffix(class, "-freq") {
		b.Divisors = freqDivisors
	}
	return selectOp(tenant, class, b)
}

func (g *missGen) qualityOp(tenant string) op {
	for {
		n := 1 + g.rng.Intn(missMaxSet)
		set := g.rng.Perm(g.shape.nsrc)[:n]
		b := &qualityBody{Set: set, Ticks: g.ticks()}
		key := tenant + "|" + fmt.Sprint(b.Set, b.Ticks)
		if !g.seen[key] {
			g.seen[key] = true
			return qualityOp(tenant, b)
		}
	}
}

// preflight returns one select, one frequency-variant select (which also
// fits the tenant's divisor models) and one quality request per tenant.
func (g *missGen) preflight() []op {
	var ops []op
	for _, t := range g.shape.names {
		ops = append(ops, g.selectOp(t, "lazygreedy"), g.selectOp(t, "lazygreedy-freq"), g.qualityOp(t))
	}
	return ops
}

func (g *missGen) next() op {
	t := g.shape.names[g.rng.Intn(len(g.shape.names))]
	var o op
	if g.kinds.draw(g.rng) == "select" {
		o = g.selectOp(t, g.cls.draw(g.rng))
	} else {
		o = g.qualityOp(t)
	}
	o.check = g.checks && g.rng.Float64() < checkShare
	return o
}

// keySet is a fixed set of select and quality keys per tenant, the hot
// keys that query-hot and ingest read.
type keySet struct {
	names   []string
	selects map[string][]op
	quality map[string][]op
}

// all returns every key, tenant by tenant.
func (ks *keySet) all() []op {
	var ops []op
	for _, t := range ks.names {
		ops = append(ops, ks.selects[t]...)
		ops = append(ops, ks.quality[t]...)
	}
	return ops
}

// newZipfStream reads ks: a uniform tenant, a kind from kindBlock and a
// Zipf(s)-skewed key of that kind.
func newZipfStream(seed int64, ks *keySet, s float64) *stream {
	rng := rand.New(rand.NewSource(seed))
	kinds := block{items: kindBlock}
	z := rand.NewZipf(rng, s, 1, uint64(len(ks.selects[ks.names[0]])-1))
	return &stream{next: func() op {
		t := ks.names[rng.Intn(len(ks.names))]
		if kinds.draw(rng) == "select" {
			return ks.selects[t][z.Uint64()]
		}
		return ks.quality[t][z.Uint64()]
	}}
}

// Query-hot reads hotKeys select and hotKeys quality keys per tenant,
// Zipf-skewed with exponent hotZipf.
const (
	hotKeys = 16
	hotZipf = 1.1
)

// newHotKeys draws query-hot's keys: plain selects over all three
// algorithms at a few budgets, and quality requests over random sets.
func newHotKeys(seed int64, shape queryShape) *keySet {
	g := newMissGen(seed, shape)
	g.checks = false
	budgets := []float64{0.005, 0.01, 0.02, 0.04}
	algs := []string{"lazygreedy", "greedy", "maxsub"}
	ks := &keySet{names: shape.names, selects: map[string][]op{}, quality: map[string][]op{}}
	for _, t := range shape.names {
		for k := 0; k < hotKeys; k++ {
			o := g.selectOp(t, algs[k%len(algs)])
			o.sel.Budget = budgets[k%len(budgets)] + float64(k)*1e-9
			ks.selects[t] = append(ks.selects[t], selectOp(t, o.class, o.sel))
			ks.quality[t] = append(ks.quality[t], g.qualityOp(t))
		}
	}
	return ks
}

// The ingest tenant's reads: 4 select and 4 quality keys, all addressed by
// future so they follow the moving watermark, Zipf-skewed with exponent
// feedZipf.
const feedZipf = 1.5

func newFeedKeys(seed int64) *keySet {
	rng := rand.New(rand.NewSource(seed))
	ks := &keySet{names: []string{feedTenant}, selects: map[string][]op{}, quality: map[string][]op{}}
	algs := []string{"lazygreedy", "greedy", "maxsub", "lazygreedy"}
	budgets := []float64{0.2, 0.3, 0.4, 0.5}
	for k, alg := range algs {
		ks.selects[feedTenant] = append(ks.selects[feedTenant], selectOp(feedTenant, alg, &selectBody{
			Algorithm: alg, Gain: "linear", Metric: "coverage", Budget: budgets[k], Future: 3 + k,
		}))
		set := rng.Perm(feedSources)[:2+rng.Intn(3)]
		ks.quality[feedTenant] = append(ks.quality[feedTenant], qualityOp(feedTenant, &qualityBody{Set: set, Future: 3 + k}))
	}
	return ks
}

// feedBatch is the number of observations per /v1/observe request.
const feedBatch = 4

// observeBodies splits an epoch into /v1/observe bodies of feedBatch
// observations each.
func observeBodies(ep feedEpoch) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(ep.obs); lo += feedBatch {
		var req serve.ObserveRequest
		for _, o := range ep.obs[lo:min(lo+feedBatch, len(ep.obs))] {
			req.Observations = append(req.Observations, serve.ObserveEvent{
				Source: o.Source, Entity: int64(o.Event.Entity), Kind: o.Event.Kind.String(),
				At: int64(o.Event.At), Version: o.Event.Version,
			})
		}
		body, _ := json.Marshal(req)
		out = append(out, body)
	}
	return out
}

// client is one load goroutine's HTTP client: a single keep-alive
// connection to its target.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response. The returned body
// aliases the client's buffer until the next call.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	return c.finish(c.hc.Post(c.base+path, "application/json", bytes.NewReader(body)))
}

// get is post for GET requests.
func (c *client) get(path string) (int, []byte, error) {
	return c.finish(c.hc.Get(c.base + path))
}

func (c *client) finish(resp *http.Response, err error) (int, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// tally is one client's record of the timed phase.
type tally struct {
	lat     map[string][]float64 // ms per kind: select, quality, observe, commit
	ops     int
	failed  int
	errs    []string
	checked []answered
	late    []float64 // ms each feed slot started after its due time
	commits int
}

// answered is a request kept with its response for the output check.
type answered struct {
	op   op
	body []byte
}

func newTally() *tally { return &tally{lat: map[string][]float64{}} }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.ops += o.ops
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
	t.checked = append(t.checked, o.checked...)
	t.late = append(t.late, o.late...)
	t.commits += o.commits
}

func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// read sends one read op and records its latency and outcome.
func (c *client) read(o op, t *tally) {
	start := time.Now()
	code, body, err := c.post(o.path(), o.body)
	ms := sinceMs(start)
	t.ops++
	switch {
	case err != nil:
		t.fail("%s %s: %v", o.kind, o.tenant, err)
		return
	case code != http.StatusOK:
		t.fail("%s %s: HTTP %d: %s", o.kind, o.tenant, code, strings.TrimSpace(string(body)))
		return
	}
	t.lat[o.kind] = append(t.lat[o.kind], ms)
	if o.check {
		t.checked = append(t.checked, answered{op: o, body: append([]byte(nil), body...)})
	}
}

// observe posts one feed batch and records its 202 ack latency.
func (c *client) observe(body []byte, t *tally) {
	start := time.Now()
	code, resp, err := c.post("/v1/observe?tenant="+feedTenant, body)
	ms := sinceMs(start)
	t.ops++
	switch {
	case err != nil:
		t.fail("observe: %v", err)
	case code != http.StatusAccepted:
		t.fail("observe: HTTP %d: %s", code, strings.TrimSpace(string(resp)))
	default:
		t.lat["observe"] = append(t.lat["observe"], ms)
	}
}
