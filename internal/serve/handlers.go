package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
	"freshsource/internal/version"
)

// SelectRequest is the body of POST /v1/select. Zero values take the
// freshselect defaults, so `{}` is a valid request (maxsub over the linear
// coverage gain, unconstrained, ten spread future ticks).
//
// A request names what to solve, never how: the server runs each solve
// sequentially (concurrency comes from concurrent requests under
// admission), so execution knobs are not fields and the strict decoder
// rejects them like any other unknown field.
type SelectRequest struct {
	Algorithm string  `json:"algorithm,omitempty"` // greedy|maxsub|grasp|lazygreedy|budgeted
	Gain      string  `json:"gain,omitempty"`      // linear|quad|step|data
	Metric    string  `json:"metric,omitempty"`    // coverage|local-freshness|global-freshness|accuracy
	Divisors  []int   `json:"divisors,omitempty"`  // frequency divisors (Definition 4)
	Budget    float64 `json:"budget,omitempty"`    // βc on rescaled cost in (0,1]; 0 = unconstrained
	Kappa     int     `json:"kappa,omitempty"`     // GRASP κ
	Rounds    int     `json:"rounds,omitempty"`    // GRASP r
	Seed      int64   `json:"seed,omitempty"`      // GRASP seed
	Future    int     `json:"future,omitempty"`    // |Tf| when Ticks is empty
	Ticks     []int64 `json:"ticks,omitempty"`     // explicit Tf (overrides Future)
}

// SelectResponse is the body of POST /v1/select. It carries no timing or
// cache-state fields on purpose: the same request must produce the same
// bytes whether it was computed, replayed from the warm registry, or
// answered from a coalesced flight (warm hit rates are visible on /metrics
// instead).
type SelectResponse struct {
	Algorithm   string   `json:"algorithm"`
	Set         []int    `json:"set"`
	Names       []string `json:"names"`
	Divisors    []int    `json:"divisors"`
	Profit      float64  `json:"profit"`
	Gain        float64  `json:"gain"`
	AvgCoverage float64  `json:"avg_coverage"`
	AvgAccuracy float64  `json:"avg_accuracy"`
	OracleCalls int      `json:"oracle_calls"`
	Ticks       []int64  `json:"ticks"`
}

// QualityRequest is the body of POST /v1/quality: evaluate an explicit
// candidate set at future ticks.
type QualityRequest struct {
	Set      []int   `json:"set"`
	Divisors []int   `json:"divisors,omitempty"`
	Future   int     `json:"future,omitempty"`
	Ticks    []int64 `json:"ticks,omitempty"`
}

// QualityPoint is the estimated integration quality at one future tick.
type QualityPoint struct {
	Tick            int64   `json:"tick"`
	Coverage        float64 `json:"coverage"`
	LocalFreshness  float64 `json:"local_freshness"`
	GlobalFreshness float64 `json:"global_freshness"`
	Accuracy        float64 `json:"accuracy"`
	ExpectedOmega   float64 `json:"expected_omega"`
	ExpectedSize    float64 `json:"expected_size"`
}

// QualityResponse is the body of POST /v1/quality.
type QualityResponse struct {
	Set         []int          `json:"set"`
	Ticks       []int64        `json:"ticks"`
	Points      []QualityPoint `json:"points"`
	AvgCoverage float64        `json:"avg_coverage"`
	AvgAccuracy float64        `json:"avg_accuracy"`
}

// SourceInfo describes one source of the loaded snapshot.
type SourceInfo struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	SizeAtT0 int    `json:"size_at_t0"`
}

// SourcesResponse is the body of GET /v1/sources.
type SourcesResponse struct {
	Dataset     string       `json:"dataset"`
	Tenant      string       `json:"tenant"`
	T0          int64        `json:"t0"`
	Horizon     int64        `json:"horizon"`
	NumEntities int          `json:"num_entities"`
	Sources     []SourceInfo `json:"sources"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// errorBody marshals the error envelope writeErr writes, as (code, bytes),
// for paths that publish through a coalesced flight instead of writing
// directly.
func errorBody(code int, format string, args ...any) (int, []byte) {
	body, err := json.Marshal(errorResponse{Error: fmt.Sprintf(format, args...)})
	if err != nil {
		return http.StatusInternalServerError, []byte(`{"error":"encoding failed"}` + "\n")
	}
	return code, append(body, '\n')
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	code, body := errorBody(code, format, args...)
	writeBody(w, code, body)
}

// decodeBody strictly decodes a JSON request body (unknown fields are a 400:
// a misspelled option silently falling back to a default would be worse).
// The body is capped at cfg.MaxBodyBytes: a public daemon must not let one
// oversized POST allocate unboundedly, so past the cap the connection is
// cut off and the client gets 413.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			obs.Counter("serve.body_too_large").Inc()
			writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// withDefaults normalizes a select request: every defaulted field is made
// explicit (resolveTicks then folds Future into Ticks), so the normalized
// form is the canonical cache identity of the request.
func (req SelectRequest) withDefaults() SelectRequest {
	if req.Algorithm == "" {
		req.Algorithm = string(core.MaxSub)
	}
	if req.Gain == "" {
		req.Gain = "linear"
	}
	if req.Metric == "" {
		req.Metric = "coverage"
	}
	if req.Kappa <= 0 {
		req.Kappa = 5
	}
	if req.Rounds <= 0 {
		req.Rounds = 20
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return req
}

// resolveTicks turns a request's explicit Tf or future count into validated
// ticks inside the evaluation window (T0, Horizon) of the generation's
// snapshot. Neither may ask for more ticks than the window holds: the
// count sizes the tick list, the cache key, the evaluation and the
// response, so an unbounded one lets a tiny body demand gigabytes. The
// bound applies to the request's own values, before DefaultFuture fills
// an absent count.
func (s *Server) resolveTicks(d *dataset.Dataset, explicit []int64, future int) ([]timeline.Tick, error) {
	window := int(d.Horizon() - 1 - d.T0)
	if future > window {
		return nil, fmt.Errorf("future: %d ticks, the evaluation window (%d, %d] holds %d",
			future, d.T0, d.Horizon()-1, window)
	}
	if len(explicit) > window {
		return nil, fmt.Errorf("ticks: %d entries, the evaluation window (%d, %d] holds %d",
			len(explicit), d.T0, d.Horizon()-1, window)
	}
	if len(explicit) > 0 {
		out := make([]timeline.Tick, len(explicit))
		for i, t := range explicit {
			tk := timeline.Tick(t)
			if tk <= d.T0 || tk >= d.Horizon() {
				return nil, fmt.Errorf("tick %d outside the evaluation window (%d, %d]",
					t, d.T0, d.Horizon()-1)
			}
			out[i] = tk
		}
		return out, nil
	}
	if future <= 0 {
		future = s.cfg.DefaultFuture
	}
	return SpreadTicks(d.T0, d.Horizon(), future), nil
}

// maxDivisors bounds the divisors list of /v1/select and /v1/quality. Each
// distinct list is its own registry key and a full detached fit, and every
// entry adds one candidate per source, so a long list is refused rather
// than fitted; 8 covers the paper's {2,…,7} sweep.
const maxDivisors = 8

// maxRounds bounds GRASP's round count r on /v1/select. Every round is a
// full randomized construction plus local search, so an unbounded count
// holds an admission slot until the request deadline; 100 is the largest
// r among the paper's GRASP settings.
const maxRounds = 100

func validDivisors(divs []int) error {
	if len(divs) > maxDivisors {
		return fmt.Errorf("divisors: %d entries, at most %d allowed", len(divs), maxDivisors)
	}
	for i, m := range divs {
		if m < 1 {
			return fmt.Errorf("divisors: divisor %d must be ≥ 1", m)
		}
		if slices.Contains(divs[:i], m) {
			return fmt.Errorf("divisors: divisor %d repeats", m)
		}
	}
	return nil
}

// canceled reports whether err is a timeout/cancellation outcome that maps
// to 504 (the request's deadline fired and the solve was abandoned).
func canceled(err error) bool {
	return errors.Is(err, core.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// flightKey scopes a canonical request key to a serving generation, so a
// coalesced flight can never hand out bytes computed over a snapshot the
// follower did not resolve: a reload or epoch publish changes the id, and
// requests on either side of the swap coalesce separately.
func flightKey(gen *generation, key string) string {
	return fmt.Sprintf("%d|%s", gen.id, key)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SelectRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req = req.withDefaults()

	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	// One consistent generation per request: a concurrent hot reload must
	// not change the snapshot or registry under our feet mid-handler.
	gen := t.current()

	switch core.Algorithm(req.Algorithm) {
	case core.Greedy, core.MaxSub, core.GRASP, core.LazyGreedy, core.Budgeted:
	default:
		writeErr(w, http.StatusBadRequest, "unknown algorithm %q", req.Algorithm)
		return
	}
	if _, err := MakeGain(req.Gain, req.Metric, gen.d.World.NumEntities()); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validDivisors(req.Divisors); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Rounds > maxRounds {
		writeErr(w, http.StatusBadRequest, "rounds: %d, at most %d allowed", req.Rounds, maxRounds)
		return
	}
	if req.Budget < 0 || req.Budget > 1 {
		writeErr(w, http.StatusBadRequest, "budget %g outside [0, 1]", req.Budget)
		return
	}
	ticks, err := s.resolveTicks(gen.d, req.Ticks, req.Future)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Ticks = make([]int64, len(ticks))
	for i, tk := range ticks {
		req.Ticks[i] = int64(tk)
	}
	req.Future = 0 // folded into Ticks; keep the cache identity canonical

	rawKey, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	key := "s|" + string(rawKey)
	if body, ok := gen.reg.CachedResult(key); ok {
		writeBody(w, http.StatusOK, body)
		return
	}

	code, body, err := t.coSelect.Do(r.Context(), flightKey(gen, key), func() (int, []byte) {
		return s.computeSelect(gen, req, ticks, key)
	})
	if err != nil {
		obs.Counter("serve.timeouts").Inc()
		writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded while coalesced: %v", err)
		return
	}
	writeBody(w, code, body)
}

// computeSelect runs one solver pass and caches the marshaled response. It
// runs under a detached context (the server's lifetime bounded by the
// request timeout) rather than the leader's request context: a coalesced
// flight answers every follower, so one client's disconnect must not poison
// the shared pass — the same rule as the registry's detached fits.
func (s *Server) computeSelect(gen *generation, req SelectRequest, ticks []timeline.Tick, key string) (int, []byte) {
	ctx, cancel := context.WithTimeout(s.life, s.cfg.RequestTimeout)
	defer cancel()

	prob, err := gen.reg.Problem(ctx, req.Divisors, req.Gain, req.Metric, req.Budget, ticks)
	if err != nil {
		return solveErrorBody(err)
	}
	sel, err := prob.SolveContext(ctx, core.Algorithm(req.Algorithm), core.SolveOptions{
		Kappa: req.Kappa, Rounds: req.Rounds, Seed: req.Seed,
	})
	if err != nil {
		return solveErrorBody(err)
	}

	resp := SelectResponse{
		Algorithm:   string(sel.Algorithm),
		Set:         emptyNotNil(sel.Set),
		Names:       emptyNotNil(sel.Names),
		Divisors:    emptyNotNil(sel.Divisors),
		Profit:      sel.Profit,
		Gain:        sel.Gain,
		AvgCoverage: sel.AvgCoverage,
		AvgAccuracy: sel.AvgAccuracy,
		OracleCalls: sel.OracleCalls,
		Ticks:       req.Ticks,
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return errorBody(http.StatusInternalServerError, "%v", err)
	}
	body = append(body, '\n')
	gen.reg.PutResult(key, body)
	return http.StatusOK, body
}

// solveErrorBody maps a solver/fit error onto its response bytes.
func solveErrorBody(err error) (int, []byte) {
	if canceled(err) {
		obs.Counter("serve.timeouts").Inc()
		return errorBody(http.StatusGatewayTimeout, "request deadline exceeded; run canceled: %v", err)
	}
	return errorBody(http.StatusInternalServerError, "%v", err)
}

func (s *Server) solveError(w http.ResponseWriter, err error) {
	code, body := solveErrorBody(err)
	writeBody(w, code, body)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QualityRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	gen := t.current()
	if err := validDivisors(req.Divisors); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ticks, err := s.resolveTicks(gen.d, req.Ticks, req.Future)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Ticks = make([]int64, len(ticks))
	for i, tk := range ticks {
		req.Ticks[i] = int64(tk)
	}
	req.Future = 0 // canonical identity, like select

	rawKey, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	key := "q|" + string(rawKey)
	if body, ok := gen.reg.CachedResult(key); ok {
		writeBody(w, http.StatusOK, body)
		return
	}

	code, body, err := t.coQuality.Do(r.Context(), flightKey(gen, key), func() (int, []byte) {
		return s.computeQuality(gen, req, ticks, key)
	})
	if err != nil {
		obs.Counter("serve.timeouts").Inc()
		writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded while coalesced: %v", err)
		return
	}
	writeBody(w, code, body)
}

// computeQuality evaluates one explicit candidate set and caches the
// marshaled response; detached-context rules as computeSelect.
func (s *Server) computeQuality(gen *generation, req QualityRequest, ticks []timeline.Tick, key string) (int, []byte) {
	ctx, cancel := context.WithTimeout(s.life, s.cfg.RequestTimeout)
	defer cancel()

	tr, err := gen.reg.Trained(ctx, req.Divisors)
	if err != nil {
		return solveErrorBody(err)
	}
	// Distinct, in-range entries cap the set at the candidate count: a
	// repeat would fold the candidate into the covering lists again.
	seen := make([]bool, tr.NumCandidates())
	for _, i := range req.Set {
		if i < 0 || i >= tr.NumCandidates() {
			return errorBody(http.StatusBadRequest, "set: candidate %d outside [0, %d)", i, tr.NumCandidates())
		}
		if seen[i] {
			return errorBody(http.StatusBadRequest, "set: candidate %d repeats", i)
		}
		seen[i] = true
	}
	st, tr, err := gen.reg.State(ctx, req.Divisors, req.Set)
	if err != nil {
		return solveErrorBody(err)
	}
	qs := tr.Est.QualityMultiState(st, ticks)

	resp := QualityResponse{
		Set:    emptyNotNil(req.Set),
		Ticks:  make([]int64, len(ticks)),
		Points: make([]QualityPoint, len(qs)),
	}
	for k, q := range qs {
		resp.Ticks[k] = int64(ticks[k])
		resp.Points[k] = QualityPoint{
			Tick:            int64(ticks[k]),
			Coverage:        q.Coverage,
			LocalFreshness:  q.LocalFreshness,
			GlobalFreshness: q.GlobalFreshness,
			Accuracy:        q.Accuracy,
			ExpectedOmega:   q.ExpectedOmega,
			ExpectedSize:    q.ExpectedSize,
		}
		resp.AvgCoverage += q.Coverage
		resp.AvgAccuracy += q.Accuracy
	}
	if len(qs) > 0 {
		resp.AvgCoverage /= float64(len(qs))
		resp.AvgAccuracy /= float64(len(qs))
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return errorBody(http.StatusInternalServerError, "%v", err)
	}
	body = append(body, '\n')
	gen.reg.PutResult(key, body)
	return http.StatusOK, body
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	d := t.current().d
	resp := SourcesResponse{
		Dataset:     d.Name,
		Tenant:      t.name,
		T0:          int64(d.T0),
		Horizon:     int64(d.Horizon()),
		NumEntities: d.World.NumEntities(),
		Sources:     make([]SourceInfo, len(d.Sources)),
	}
	sizes := d.SizeAt(d.T0)
	for i, src := range d.Sources {
		resp.Sources[i] = SourceInfo{Index: i, Name: src.Name(), SizeAtT0: sizes[i]}
	}
	writeJSON(w, http.StatusOK, resp)
}

// tenantHealth is one tenant's block in the /healthz report.
func tenantHealth(t *Tenant) (map[string]any, bool) {
	gen := t.current()
	block := map[string]any{
		"dataset":    gen.d.Name,
		"generation": gen.id,
		"digest":     hex.EncodeToString(gen.digest[:]),
	}
	degraded := false
	if t.ing != nil {
		ing := map[string]any{
			"epoch":     t.ing.Seq(),
			"watermark": int64(t.ing.Watermark()),
			"pending":   t.ing.Pending(),
		}
		// A durable epoch the ingester could not fold (both the incremental
		// fold and the rebuild failed) degrades the whole health report:
		// serving continues on last-good, but the refit state lags the
		// durable log until a later commit recovers.
		if err := t.ing.Err(); err != nil {
			ing["error"] = err.Error()
			degraded = true
		}
		block["ingest"] = ing
	}
	return block, degraded
}

// handleHealthz reports liveness plus the build identity and every
// tenant's serving generation: its id (bumped by every successful reload
// swap or epoch publish) and snapshot digest, so an operator can tell from
// the outside which build is serving and whether a rolled snapshot
// actually took effect — per tenant. The top-level dataset/generation/
// digest/ingest fields mirror the default tenant for single-tenant
// dashboards and the freshgate health probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	defBlock, degraded := tenantHealth(s.def)
	resp := map[string]any{
		"status":         "ok",
		"dataset":        defBlock["dataset"],
		"generation":     defBlock["generation"],
		"digest":         defBlock["digest"],
		"default_tenant": s.def.name,
		"version":        version.Version,
		"commit":         version.Commit,
		"go":             runtime.Version(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if ing, ok := defBlock["ingest"]; ok {
		resp["ingest"] = ing
	}
	tenants := make(map[string]any, len(s.names))
	for _, name := range s.names {
		block, deg := tenantHealth(s.tenants[name])
		degraded = degraded || deg
		tenants[name] = block
	}
	resp["tenants"] = tenants
	if degraded {
		resp["status"] = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics exposes the obs registry. The default is the Prometheus
// text exposition format (what a scraper expects on /metrics); the full
// structured snapshot — including raw histogram bucket layouts — remains
// available as JSON under ?format=json for the bench harness and humans.
// Runtime gauges (heap, goroutines, mallocs) are captured per scrape, so
// both views always carry current process stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.Active()
	obs.CaptureRuntime(reg)
	snap := reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	snap.WritePrometheus(w)
}

// emptyNotNil pins empty slices to `[]` (not `null`) in responses, keeping
// the encoding of an empty selection deterministic and type-stable.
func emptyNotNil[T any](xs []T) []T {
	if xs == nil {
		return []T{}
	}
	return xs
}
