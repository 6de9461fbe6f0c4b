package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
	"freshsource/internal/version"
)

// fixture: one small BL-like dataset per test binary (same shape as the
// core package's fixture).
var fixtureDS *dataset.Dataset

func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	if fixtureDS != nil {
		return fixtureDS
	}
	cfg := dataset.DefaultBLConfig()
	cfg.Locations = 8
	cfg.Categories = 5
	cfg.NumSources = 10
	cfg.Horizon = 220
	cfg.T0 = 120
	cfg.Scale = 0.4
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixtureDS = d
	return d
}

func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(testDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func counter(name string) int64 { return obs.Active().Counter(name).Value() }

// TestSelectMatchesCLIPipeline pins the serving contract: /v1/select must
// be byte-identical to the freshselect pipeline over the same snapshot and
// options — same training window, same spread Tf, same algorithm defaults.
func TestSelectMatchesCLIPipeline(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})

	rec := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("select: %d %s", rec.Code, rec.Body.String())
	}

	// Reference: the exact freshselect pipeline (including its explicit
	// MaxT = last spread tick, which must coincide with the registry's
	// default of horizon−1).
	ticks := SpreadTicks(d.T0, d.Horizon(), 10)
	tr, err := core.Train(d.World, d.Sources, d.T0, core.TrainOptions{MaxT: ticks[len(ticks)-1]})
	if err != nil {
		t.Fatal(err)
	}
	g, err := MakeGain("linear", "coverage", d.World.NumEntities())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(tr, ticks, g, core.ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := prob.Solve(core.MaxSub, core.SolveOptions{Kappa: 5, Rounds: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := SelectResponse{
		Algorithm:   string(sel.Algorithm),
		Set:         emptyNotNil(sel.Set),
		Names:       emptyNotNil(sel.Names),
		Divisors:    emptyNotNil(sel.Divisors),
		Profit:      sel.Profit,
		Gain:        sel.Gain,
		AvgCoverage: sel.AvgCoverage,
		AvgAccuracy: sel.AvgAccuracy,
		OracleCalls: sel.OracleCalls,
		Ticks:       make([]int64, len(ticks)),
	}
	for i, tk := range ticks {
		want.Ticks[i] = int64(tk)
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantBody = append(wantBody, '\n')
	if !bytes.Equal(rec.Body.Bytes(), wantBody) {
		t.Errorf("served selection differs from the CLI pipeline:\n got %s\nwant %s",
			rec.Body.String(), wantBody)
	}
	if len(sel.Set) == 0 {
		t.Error("fixture selection is empty; the byte-identity check is vacuous")
	}
}

// TestWarmRegistryByteIdentical: the same request twice must return the
// same bytes, with the second served from the warm result cache.
func TestWarmRegistryByteIdentical(t *testing.T) {
	srv := newServer(t, Config{})
	req := `{"algorithm":"greedy","gain":"step","metric":"accuracy","seed":3}`

	hits0 := counter("serve.registry.result_hits")
	first := postJSON(t, srv.Handler(), "/v1/select", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d %s", first.Code, first.Body.String())
	}
	second := postJSON(t, srv.Handler(), "/v1/select", req)
	if second.Code != http.StatusOK {
		t.Fatalf("second: %d %s", second.Code, second.Body.String())
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("warm replay differs:\n first %s\nsecond %s", first.Body.String(), second.Body.String())
	}
	if got := counter("serve.registry.result_hits") - hits0; got != 1 {
		t.Errorf("result_hits delta = %d, want 1", got)
	}

	// An equivalent request spelled through `future` instead of explicit
	// defaults must hit the same cache entry (normalization canonicalizes).
	third := postJSON(t, srv.Handler(), "/v1/select",
		`{"algorithm":"greedy","gain":"step","metric":"accuracy","seed":3,"future":10}`)
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("normalized request missed the warm cache path")
	}
}

// TestQualityEndpoint checks /v1/quality against the estimator directly,
// that an identical repeat is answered byte-identically from the result
// cache, and that an equivalent request with a different tick spelling still
// reuses the cached set state.
func TestQualityEndpoint(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})

	body := `{"set":[0,2,5],"ticks":[150,200]}`
	rec := postJSON(t, srv.Handler(), "/v1/quality", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("quality: %d %s", rec.Code, rec.Body.String())
	}
	var got QualityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	tr, err := srv.Registry().Trained(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := tr.Est.QualityMulti([]int{0, 2, 5}, []timeline.Tick{150, 200})
	for k, q := range ref {
		p := got.Points[k]
		if p.Coverage != q.Coverage || p.Accuracy != q.Accuracy ||
			p.LocalFreshness != q.LocalFreshness || p.GlobalFreshness != q.GlobalFreshness {
			t.Errorf("tick %d: served %+v != estimator %+v", p.Tick, p, q)
		}
	}
	if d.T0 >= 150 {
		t.Fatal("fixture T0 moved; ticks in this test are stale")
	}

	// An identical repeat short-circuits at the marshaled-result cache —
	// byte-identical, no estimator work at all.
	rhits0 := counter("serve.registry.result_hits")
	rec2 := postJSON(t, srv.Handler(), "/v1/quality", body)
	if got := counter("serve.registry.result_hits") - rhits0; got != 1 {
		t.Errorf("result_hits delta = %d, want 1", got)
	}
	if rec2.Body.String() != rec.Body.String() {
		t.Error("cached quality response is not byte-identical")
	}

	// A different tick set over the same candidate set misses the result
	// cache but reuses the memoized set state.
	hits0 := counter("serve.registry.state_hits")
	postJSON(t, srv.Handler(), "/v1/quality", `{"set":[0,2,5],"ticks":[160,210]}`)
	if got := counter("serve.registry.state_hits") - hits0; got != 1 {
		t.Errorf("state_hits delta = %d, want 1", got)
	}
}

// TestSaturation429: with the gate full, a heavy request is rejected
// immediately while /healthz stays live.
func TestSaturation429(t *testing.T) {
	srv := newServer(t, Config{MaxInflight: 2})
	for i := 0; i < srv.gate.Capacity(); i++ {
		if !srv.gate.TryAcquire() {
			t.Fatal("gate refused below capacity")
		}
	}
	defer func() {
		for i := 0; i < srv.gate.Capacity(); i++ {
			srv.gate.Release()
		}
	}()

	rec := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated select: %d, want 429", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "saturated") {
		t.Errorf("429 body: %s", rec.Body.String())
	}

	health := httptest.NewRecorder()
	srv.Handler().ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Errorf("healthz under saturation: %d", health.Code)
	}
}

// TestRequestTimeout: an expired deadline cancels the solve and maps
// ErrCanceled to 504.
func TestRequestTimeout(t *testing.T) {
	srv := newServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := postJSON(t, srv.Handler(), "/v1/select", `{"algorithm":"grasp","rounds":50}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out select: %d %s, want 504", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "canceled") {
		t.Errorf("504 body should name the cancellation: %s", rec.Body.String())
	}
}

// TestBadRequests pins the 4xx surface.
func TestBadRequests(t *testing.T) {
	srv := newServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/select", `{"algorithm":`, http.StatusBadRequest},
		{"unknown field", "/v1/select", `{"algoritm":"maxsub"}`, http.StatusBadRequest},
		{"unknown algorithm", "/v1/select", `{"algorithm":"simplex"}`, http.StatusBadRequest},
		{"unknown gain", "/v1/select", `{"gain":"cubic"}`, http.StatusBadRequest},
		{"unknown metric", "/v1/select", `{"metric":"novelty"}`, http.StatusBadRequest},
		{"bad divisor", "/v1/select", `{"divisors":[0]}`, http.StatusBadRequest},
		{"bad budget", "/v1/select", `{"budget":1.5}`, http.StatusBadRequest},
		{"tick in training window", "/v1/select", `{"ticks":[10]}`, http.StatusBadRequest},
		{"tick past horizon", "/v1/select", `{"ticks":[100000]}`, http.StatusBadRequest},
		{"quality candidate range", "/v1/quality", `{"set":[99]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := postJSON(t, srv.Handler(), tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/select", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET select: %d, want 405", rec.Code)
	}
}

// TestDivisorsBounded: a divisors list longer than maxDivisors, or one
// that repeats a value, is refused with 400 naming the field on both
// endpoints that take it — before it reaches the registry, so no fit
// starts.
func TestDivisorsBounded(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	bodies := map[string]string{
		"/v1/select":  `{"divisors":%s}`,
		"/v1/quality": `{"set":[0],"divisors":%s}`,
	}
	lists := []struct{ name, divs string }{
		{"repeat", "[2,3,2]"},
		{"nine entries", "[2,3,4,5,6,7,8,9,10]"},
		{"200 copies", "[" + strings.Repeat("2,", 199) + "2]"},
	}
	misses := counter("serve.registry.trained_misses")
	for path, body := range bodies {
		for _, l := range lists {
			rec := postJSON(t, srv.Handler(), path, fmt.Sprintf(body, l.divs))
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %s: error body %q: %v", path, l.name, rec.Body.String(), err)
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(resp.Error, "divisors") {
				t.Errorf("%s %s: %d %q, want 400 naming divisors", path, l.name, rec.Code, resp.Error)
			}
		}
	}
	if got := counter("serve.registry.trained_misses") - misses; got != 0 {
		t.Errorf("rejected divisor lists started %d fits", got)
	}
	// The longest allowed list of distinct divisors is still served.
	if rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[0],"divisors":[2,3,4,5,6,7,8,9]}`); rec.Code != http.StatusOK {
		t.Errorf("%d distinct divisors: %d %s, want 200", maxDivisors, rec.Code, rec.Body.String())
	}
}

// TestRoundsBounded: a GRASP round count above maxRounds is refused with
// 400 naming the field, before a solve can hold an admission slot until the
// request deadline; the paper's largest setting, r = 100, passes the check
// (greedy ignores r, so the boundary costs no GRASP solve).
func TestRoundsBounded(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	for _, r := range []int{maxRounds + 1, 1_000_000_000} {
		rec := postJSON(t, srv.Handler(), "/v1/select", fmt.Sprintf(`{"algorithm":"grasp","rounds":%d}`, r))
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("rounds %d: error body %q: %v", r, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(resp.Error, "rounds") {
			t.Fatalf("rounds %d: %d %q, want 400 naming rounds", r, rec.Code, resp.Error)
		}
	}
	body := fmt.Sprintf(`{"algorithm":"greedy","rounds":%d}`, maxRounds)
	if rec := postJSON(t, srv.Handler(), "/v1/select", body); rec.Code != http.StatusOK {
		t.Errorf("rounds %d: %d %s, want 200", maxRounds, rec.Code, rec.Body.String())
	}
}

// TestTicksBounded: a future count or an explicit tick list longer than
// the evaluation window (T0, Horizon−1] is refused with 400 naming the
// field on both endpoints — before any problem is built or result cached,
// and without allocating the requested tick list. A future count equal to
// the window is still served.
func TestTicksBounded(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})
	defer srv.Close()
	window := int(d.Horizon() - 1 - d.T0)
	ticks := make([]string, window+1)
	for i := range ticks {
		ticks[i] = fmt.Sprint(int64(d.T0) + 1 + int64(i%window))
	}
	prefixes := map[string]string{
		"/v1/select":  `{"algorithm":"lazygreedy",`,
		"/v1/quality": `{"set":[0],`,
	}
	cases := []struct{ field, body string }{
		{"future", fmt.Sprintf(`"future":%d}`, window+1)},
		{"future", fmt.Sprintf(`"future":%d}`, int64(1)<<40)},
		{"ticks", `"ticks":[` + strings.Join(ticks, ",") + `]}`},
	}
	results := counter("serve.registry.result_misses")
	problems := counter("serve.registry.problem_misses")
	for path, prefix := range prefixes {
		for _, tc := range cases {
			rec := postJSON(t, srv.Handler(), path, prefix+tc.body)
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %.40s: error body %q: %v", path, tc.body, rec.Body.String(), err)
			}
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(resp.Error, tc.field+":") {
				t.Errorf("%s %.40s: %d %q, want 400 naming %s", path, tc.body, rec.Code, resp.Error, tc.field)
			}
		}
	}
	if got := counter("serve.registry.result_misses") - results; got != 0 {
		t.Errorf("rejected tick counts missed the result cache %d times", got)
	}
	if got := counter("serve.registry.problem_misses") - problems; got != 0 {
		t.Errorf("rejected tick counts built %d problems", got)
	}
	// The whole window is still a valid Tf.
	for path, prefix := range prefixes {
		body := prefix + fmt.Sprintf(`"future":%d}`, window)
		if rec := postJSON(t, srv.Handler(), path, body); rec.Code != http.StatusOK {
			t.Errorf("%s future=%d: %d %s, want 200", path, window, rec.Code, rec.Body.String())
		}
	}
}

// TestQualitySetRepeats: a quality set that repeats a candidate is
// refused with 400 naming set. Each repeat would fold the candidate into
// the covering lists again, skewing the estimate and growing the work
// about quadratically, so a long run of repeats is refused just as fast.
func TestQualitySetRepeats(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	many := "3" + strings.Repeat(",3", 20000)
	for _, set := range []string{"3,3", "3,3,3,3", "0,3,1,3", many} {
		rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[`+set+`],"ticks":[130,150]}`)
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("set [%.20s]: error body %q: %v", set, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || !strings.HasPrefix(resp.Error, "set:") {
			t.Errorf("set [%.20s]: %d %q, want 400 naming set", set, rec.Code, resp.Error)
		}
	}
	if rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[3,0,1],"ticks":[130,150]}`); rec.Code != http.StatusOK {
		t.Errorf("distinct set: %d %s, want 200", rec.Code, rec.Body.String())
	}
}

// TestDefaultTicksInsideWindow: a request naming neither ticks nor future
// on a tenant whose window is shorter than DefaultFuture is evaluated at
// distinct ticks after T0 — every tick of the window — on both endpoints.
func TestDefaultTicksInsideWindow(t *testing.T) {
	cfg := dataset.DefaultGDELTConfig()
	cfg.Locations, cfg.EventTypes, cfg.NumSources, cfg.Scale = 4, 2, 12, 0.3
	d, err := dataset.GenerateGDELT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	window := int(d.Horizon() - 1 - d.T0)
	if window >= 10 {
		t.Fatalf("window %d does not undercut DefaultFuture", window)
	}
	for path, body := range map[string]string{"/v1/select": `{}`, "/v1/quality": `{"set":[0]}`} {
		rec := postJSON(t, srv.Handler(), path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		var resp struct {
			Ticks []int64 `json:"ticks"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Ticks) != window {
			t.Errorf("%s: ticks %v, want the %d ticks of the window", path, resp.Ticks, window)
		}
		for i, tk := range resp.Ticks {
			if tk <= int64(d.T0) || (i > 0 && tk <= resp.Ticks[i-1]) {
				t.Errorf("%s: ticks %v, want distinct ascending ticks after T0=%d", path, resp.Ticks, d.T0)
				break
			}
		}
	}
}

func TestSpreadTicksClamped(t *testing.T) {
	if got, want := SpreadTicks(15, 22, 10), []timeline.Tick{16, 17, 18, 19, 20, 21}; !slices.Equal(got, want) {
		t.Errorf("SpreadTicks(15, 22, 10) = %v, want %v", got, want)
	}
	// Within the window the layout is unchanged.
	if got, want := SpreadTicks(120, 220, 4), []timeline.Tick{144, 169, 194, 219}; !slices.Equal(got, want) {
		t.Errorf("SpreadTicks(120, 220, 4) = %v, want %v", got, want)
	}
	if got := SpreadTicks(15, 16, 3); len(got) != 0 {
		t.Errorf("SpreadTicks over an empty window = %v, want none", got)
	}
}

// TestExecutionFieldsRejected: a request cannot choose how the server
// solves. Execution knobs are unknown fields — 400 naming the field — and
// in particular a huge worker count spawns nothing.
func TestExecutionFieldsRejected(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	before := runtime.NumGoroutine()
	cases := []struct{ field, body string }{
		{"workers", `{"algorithm":"greedy","workers":10000000}`},
		{"cache", `{"algorithm":"greedy","cache":true}`},
		{"lazy", `{"algorithm":"greedy","lazy":true}`},
	}
	for _, tc := range cases {
		rec := postJSON(t, srv.Handler(), "/v1/select", tc.body)
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: error body %q: %v", tc.field, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(resp.Error, `"`+tc.field+`"`) {
			t.Errorf("%s: %d %q, want 400 naming the field", tc.field, rec.Code, resp.Error)
		}
	}
	const slack = 4
	if after := runtime.NumGoroutine(); after > before+slack {
		t.Errorf("goroutines %d → %d after rejected requests", before, after)
	}
}

// TestInfoEndpoints covers /v1/sources, /healthz and /metrics.
func TestInfoEndpoints(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sources", nil))
	var src SourcesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if len(src.Sources) != len(d.Sources) || src.T0 != int64(d.T0) {
		t.Errorf("sources: %d entries t0=%d", len(src.Sources), src.T0)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["version"] != version.Version || health["commit"] != version.Commit {
		t.Errorf("healthz build identity: %v", health)
	}
	if up, ok := health["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("healthz uptime: %v", health["uptime_seconds"])
	}

	// The warm-registry hit rate must be visible on /metrics?format=json.
	postJSON(t, srv.Handler(), "/v1/select", `{}`)
	postJSON(t, srv.Handler(), "/v1/select", `{}`)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.registry.result_hits"] < 1 {
		t.Errorf("metrics should expose warm hits, got %v", snap.Counters["serve.registry.result_hits"])
	}
	if snap.Counters["serve.registry.trained_misses"] < 1 {
		t.Errorf("metrics should expose the startup fit, got %v", snap.Counters["serve.registry.trained_misses"])
	}
	if snap.Gauges["proc.heap_alloc_bytes"] <= 0 {
		t.Errorf("metrics should capture runtime gauges, got %v", snap.Gauges["proc.heap_alloc_bytes"])
	}

	// The default /metrics view is the Prometheus text exposition.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("metrics content type: %q", ct)
	}
	doc := rec.Body.String()
	if n, err := obs.ValidatePrometheus(doc); err != nil || n == 0 {
		t.Fatalf("metrics exposition invalid (%d samples): %v", n, err)
	}
	for _, want := range []string{
		"# TYPE serve_registry_result_hits counter",
		"# TYPE http_select_seconds histogram",
		`http_select_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestConcurrentRequests hammers the handler from many goroutines (the
// race-detector workload): identical requests must all agree byte-for-byte,
// and every response is either 200 or a clean 429.
func TestConcurrentRequests(t *testing.T) {
	srv := newServer(t, Config{MaxInflight: 64})
	want := postJSON(t, srv.Handler(), "/v1/select", `{}`).Body.Bytes()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[1,3],"future":4}`)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("quality: %d %s", rec.Code, rec.Body.String())
				}
				return
			}
			rec := postJSON(t, srv.Handler(), "/v1/select", `{}`)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("select: %d %s", rec.Code, rec.Body.String())
				return
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				errs <- fmt.Errorf("concurrent response diverged")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulDrain runs the real listener lifecycle: cancel the serve
// context while a slow request is in flight; the listener must close (new
// connections refused) while the in-flight request completes 200.
func TestGracefulDrain(t *testing.T) {
	// Generous request/drain bounds: under -race the solver is an order of
	// magnitude slower, and this test must never hit them.
	srv := newServer(t, Config{
		RequestTimeout: 10 * time.Minute,
		ShutdownGrace:  10 * time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	admitted0 := counter("serve.admission.admitted")

	slow := make(chan *http.Response, 1)
	slowErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/select", "application/json",
			strings.NewReader(`{"algorithm":"grasp","rounds":60,"seed":7}`))
		if err != nil {
			slowErr <- err
			return
		}
		slow <- resp
	}()

	// Wait until the slow request holds a gate slot, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for counter("serve.admission.admitted") == admitted0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	// The in-flight request must finish cleanly despite the shutdown.
	select {
	case err := <-slowErr:
		t.Fatalf("in-flight request dropped during drain: %v", err)
	case resp := <-slow:
		if resp.StatusCode != http.StatusOK {
			t.Errorf("drained request: %d", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// Listener is gone: new connections must be refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}
