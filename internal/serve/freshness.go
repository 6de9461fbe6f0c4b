package serve

import (
	"context"
	"net/http"
	"strconv"

	"freshsource/internal/obs"
	"freshsource/internal/profile"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
)

// FreshnessSource is the monitoring view of one source on GET /v1/freshness:
// how stale its last capture is at the evaluation tick, against thresholds
// derived from its own fitted update model.
type FreshnessSource struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Status is fresh, warning or stale.
	Status string `json:"status"`
	// LastCapture is the tick of the last event at or before the
	// evaluation tick, -1 when the source has never captured anything.
	LastCapture int64 `json:"last_capture"`
	// AgeTicks is at − LastCapture, -1 when there is no capture.
	AgeTicks int64 `json:"age_ticks"`
	// UpdateInterval is the fitted mean refresh interval ūS.
	UpdateInterval float64 `json:"update_interval"`
	// CaptureLag is the median capture-effectiveness delay from the
	// Kaplan–Meier insert distribution Gi (falling back to the update
	// distribution Gu): how long the source typically trails the world
	// even when it is refreshing on schedule.
	CaptureLag float64 `json:"capture_lag"`
	// WarnAfter and StaleAfter are the resolved age thresholds
	// (factor·ūS + CaptureLag) this source was classified against.
	WarnAfter  float64 `json:"warn_after"`
	StaleAfter float64 `json:"stale_after"`
}

// FreshnessResponse is the body of GET /v1/freshness.
type FreshnessResponse struct {
	Dataset     string            `json:"dataset"`
	At          int64             `json:"at"`
	Generation  uint64            `json:"generation"`
	WarnFactor  float64           `json:"warn_factor"`
	StaleFactor float64           `json:"stale_factor"`
	Totals      map[string]int    `json:"totals"`
	Sources     []FreshnessSource `json:"sources"`
}

// Freshness statuses, ordered healthy to unhealthy.
const (
	StatusFresh   = "fresh"
	StatusWarning = "warning"
	StatusStale   = "stale"
)

// captureLag extracts the typical capture delay from a fitted profile: the
// median of the insert-effectiveness KM curve Gi, falling back to the
// update curve Gu, then to zero when neither distribution reached 0.5 (a
// source that never demonstrably captures gets no lag allowance — its
// staleness is judged on the refresh schedule alone).
func captureLag(p *profile.Profile) float64 {
	for _, km := range []*stats.KaplanMeier{p.Gi, p.Gu} {
		if km == nil {
			continue
		}
		if m, ok := km.MedianTime(); ok && m > 0 {
			return m
		}
	}
	return 0
}

// classify places one age on the fresh/warning/stale scale. A source with
// no capture at all (age < 0) is always stale. When warnAfter equals
// staleAfter the warning band is empty and classification is binary.
func classify(age int64, warnAfter, staleAfter float64) string {
	switch {
	case age < 0:
		return StatusStale
	case float64(age) <= warnAfter:
		return StatusFresh
	case float64(age) <= staleAfter:
		return StatusWarning
	default:
		return StatusStale
	}
}

// queryFactor reads an optional float query parameter, keeping def when the
// parameter is absent. The bool is false on a malformed value.
func queryFactor(r *http.Request, name string, def float64) (float64, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// handleFreshness classifies every source of the serving snapshot as fresh,
// warning or stale from its fitted change/update model and its last capture
// tick. Thresholds scale per source: a daily feed is stale after days, a
// monthly dump after months. The per-status totals are also published as
// serve.freshness.* gauges so /metrics scrapes track the fleet's health
// without polling this endpoint.
func (s *Server) handleFreshness(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	gen := t.current()
	d := gen.d

	at := d.T0
	if raw := r.URL.Query().Get("at"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 || timeline.Tick(v) >= d.Horizon() {
			writeErr(w, http.StatusBadRequest,
				"at %q outside [0, %d]", raw, d.Horizon()-1)
			return
		}
		at = timeline.Tick(v)
	}
	warnF, ok := queryFactor(r, "warn", s.cfg.FreshnessWarnFactor)
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad warn factor %q", r.URL.Query().Get("warn"))
		return
	}
	staleF, ok := queryFactor(r, "stale", s.cfg.FreshnessStaleFactor)
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad stale factor %q", r.URL.Query().Get("stale"))
		return
	}
	if warnF <= 0 || staleF < warnF {
		writeErr(w, http.StatusBadRequest,
			"factors must satisfy 0 < warn (%g) ≤ stale (%g)", warnF, staleF)
		return
	}

	// The fitted profiles come from the generation's warm registry; the
	// base fit completed at startup/reload, so this is a cache hit unless
	// the endpoint races a cold registry — then it waits like any request.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	tr, err := gen.reg.Trained(ctx, nil)
	if err != nil {
		s.solveError(w, err)
		return
	}

	// Base candidates map 1:1 onto sources; index the profiles by source
	// so divisor variants (if a derived model set ever lands here) are
	// skipped.
	profiles := make(map[int]*profile.Profile, len(d.Sources))
	for i := 0; i < tr.NumCandidates(); i++ {
		c := tr.Est.Candidate(i)
		if _, seen := profiles[c.SourceIndex]; !seen || c.Divisor() == 1 {
			profiles[c.SourceIndex] = c.Profile
		}
	}

	resp := FreshnessResponse{
		Dataset:     d.Name,
		At:          int64(at),
		Generation:  gen.id,
		WarnFactor:  warnF,
		StaleFactor: staleF,
		Totals:      map[string]int{StatusFresh: 0, StatusWarning: 0, StatusStale: 0},
		Sources:     make([]FreshnessSource, len(d.Sources)),
	}
	for i, src := range d.Sources {
		fs := FreshnessSource{
			Index:       i,
			Name:        src.Name(),
			LastCapture: -1,
			AgeTicks:    -1,
		}
		if p := profiles[i]; p != nil {
			fs.UpdateInterval = p.UpdateInterval
			fs.CaptureLag = captureLag(p)
		}
		fs.WarnAfter = warnF*fs.UpdateInterval + fs.CaptureLag
		fs.StaleAfter = staleF*fs.UpdateInterval + fs.CaptureLag
		if last, ok := src.Log().LastEventAt(at); ok {
			fs.LastCapture = int64(last)
			fs.AgeTicks = int64(at - last)
		}
		fs.Status = classify(fs.AgeTicks, fs.WarnAfter, fs.StaleAfter)
		resp.Totals[fs.Status]++
		resp.Sources[i] = fs
	}

	obs.Counter("serve.freshness.checks").Inc()
	obs.Gauge("serve.freshness.fresh").Set(float64(resp.Totals[StatusFresh]))
	obs.Gauge("serve.freshness.warning").Set(float64(resp.Totals[StatusWarning]))
	obs.Gauge("serve.freshness.stale").Set(float64(resp.Totals[StatusStale]))
	writeJSON(w, http.StatusOK, resp)
}
