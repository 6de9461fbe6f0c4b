package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"freshsource/internal/dataset"
	"freshsource/internal/faults"
	"freshsource/internal/obs"
	"freshsource/internal/snapio"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
)

func gauge(name string) float64 { return obs.Active().Gauge(name).Value() }

// TestFreshnessClassification pins the endpoint's contract on the fixture:
// totals partition the sources, thresholds derive from each source's own
// fitted update interval, and the per-status gauges mirror the totals.
func TestFreshnessClassification(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()

	var resp FreshnessResponse
	rec := getJSON(t, srv.Handler(), "/v1/freshness", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("freshness: %d %s", rec.Code, rec.Body.String())
	}
	d := testDataset(t)
	if resp.At != int64(d.T0) || resp.Generation != 1 || resp.Dataset != d.Name {
		t.Errorf("header: %+v", resp)
	}
	if resp.WarnFactor != 1.5 || resp.StaleFactor != 3.0 {
		t.Errorf("default factors: warn=%g stale=%g", resp.WarnFactor, resp.StaleFactor)
	}
	if len(resp.Sources) != len(d.Sources) {
		t.Fatalf("%d sources, want %d", len(resp.Sources), len(d.Sources))
	}
	sum := 0
	for _, st := range []string{StatusFresh, StatusWarning, StatusStale} {
		sum += resp.Totals[st]
	}
	if sum != len(d.Sources) {
		t.Errorf("totals %v do not partition %d sources", resp.Totals, len(d.Sources))
	}
	for _, fs := range resp.Sources {
		if fs.UpdateInterval <= 0 {
			t.Errorf("%s: no fitted update interval", fs.Name)
		}
		if fs.WarnAfter > fs.StaleAfter {
			t.Errorf("%s: warn_after %g > stale_after %g", fs.Name, fs.WarnAfter, fs.StaleAfter)
		}
		want := classify(fs.AgeTicks, fs.WarnAfter, fs.StaleAfter)
		if fs.Status != want {
			t.Errorf("%s: status %s, want %s for age %d", fs.Name, fs.Status, want, fs.AgeTicks)
		}
	}
	if int(gauge("serve.freshness.fresh")) != resp.Totals[StatusFresh] ||
		int(gauge("serve.freshness.warning")) != resp.Totals[StatusWarning] ||
		int(gauge("serve.freshness.stale")) != resp.Totals[StatusStale] {
		t.Errorf("gauges disagree with totals %v", resp.Totals)
	}

	// Absurdly generous thresholds: every captured source is fresh.
	getJSON(t, srv.Handler(), "/v1/freshness?warn=1e6&stale=1e6", &resp)
	for _, fs := range resp.Sources {
		if fs.AgeTicks >= 0 && fs.Status != StatusFresh {
			t.Errorf("%s: %s under a 1e6 threshold", fs.Name, fs.Status)
		}
	}
}

// TestFreshnessEqualThresholds: warn == stale collapses the warning band —
// classification is binary and nothing can land in the middle.
func TestFreshnessEqualThresholds(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()

	var resp FreshnessResponse
	getJSON(t, srv.Handler(), "/v1/freshness?warn=0.5&stale=0.5", &resp)
	if resp.Totals[StatusWarning] != 0 {
		t.Errorf("equal thresholds produced warnings: %v", resp.Totals)
	}
	for _, fs := range resp.Sources {
		if fs.Status == StatusWarning {
			t.Errorf("%s: warning with an empty warning band", fs.Name)
		}
	}
}

// TestFreshnessZeroCaptures: a source whose log holds nothing at or before
// the evaluation tick is always stale, whatever the thresholds say.
func TestFreshnessZeroCaptures(t *testing.T) {
	base := testDataset(t)
	d := &dataset.Dataset{Name: "truncated", World: base.World, T0: base.T0}
	d.Sources = append([]*source.Source(nil), base.Sources...)
	// Source 0 keeps only events after T0: at the default evaluation tick
	// it has never captured anything.
	s0 := base.Sources[0]
	var late []timeline.Event
	for _, ev := range s0.Log().Events() {
		if ev.At > base.T0 {
			late = append(late, ev)
		}
	}
	quiet, err := source.FromLog(s0.ID(), s0.Spec(), s0.Horizon(), late)
	if err != nil {
		t.Fatal(err)
	}
	d.Sources[0] = quiet

	srv, err := New(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var resp FreshnessResponse
	getJSON(t, srv.Handler(), "/v1/freshness?warn=1e6&stale=1e6", &resp)
	fs := resp.Sources[0]
	if fs.Status != StatusStale || fs.LastCapture != -1 || fs.AgeTicks != -1 {
		t.Errorf("zero-capture source: %+v, want stale with no capture", fs)
	}
	if resp.Totals[StatusStale] < 1 {
		t.Errorf("totals missed the zero-capture source: %v", resp.Totals)
	}
}

// TestFreshnessValidation walks the 4xx surface.
func TestFreshnessValidation(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	d := testDataset(t)

	for _, path := range []string{
		"/v1/freshness?at=bogus",
		fmt.Sprintf("/v1/freshness?at=%d", d.Horizon()), // past the horizon
		"/v1/freshness?at=-3",
		"/v1/freshness?warn=bogus",
		"/v1/freshness?stale=bogus",
		"/v1/freshness?warn=0",         // warn must be positive
		"/v1/freshness?warn=2&stale=1", // stale < warn
	} {
		if rec := getJSON(t, srv.Handler(), path, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", path, rec.Code, rec.Body.String())
		}
	}
	if rec := postJSON(t, srv.Handler(), "/v1/freshness", "{}"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: %d, want 405", rec.Code)
	}

	// An explicit historical tick is accepted and ages shrink accordingly.
	var resp FreshnessResponse
	rec := getJSON(t, srv.Handler(), fmt.Sprintf("/v1/freshness?at=%d", d.T0-20), &resp)
	if rec.Code != http.StatusOK || resp.At != int64(d.T0-20) {
		t.Errorf("historical at: %d %+v", rec.Code, resp)
	}
}

// TestFreshnessWhileFitInFlight: when the serving generation's base models
// are still fitting (a cold registry with a slow fit), a freshness request
// waits like any other — and gets a clean 504 when its deadline fires
// first, not a hang and not a 500.
func TestFreshnessWhileFitInFlight(t *testing.T) {
	srv := newServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	defer srv.Close()
	defer faults.Reset()

	// Swap in a generation whose registry is cold and whose fit stalls.
	faults.Set("serve.fit", faults.Fault{Delay: 2 * time.Second, Times: 1})
	old := srv.current()
	cold := &generation{
		id:     old.id + 1,
		d:      old.d,
		reg:    NewRegistry(context.Background(), old.d, 16, 0, nil),
		digest: old.digest,
	}
	defer cold.reg.Close()
	srv.install(cold)

	rec := getJSON(t, srv.Handler(), "/v1/freshness", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("freshness during fit: %d %s, want 504", rec.Code, rec.Body.String())
	}
	if faults.Fired("serve.fit") == 0 {
		t.Error("stall fault never fired")
	}
	srv.install(old) // restore the warm generation for the shared fixture
}

// TestFreshnessAcrossReloadSwap hammers /v1/freshness concurrently with a
// generation swap: every response must be coherent (200 with totals that
// partition the sources of whichever generation served it) — a swap must
// never surface as an error or a half-updated view.
func TestFreshnessAcrossReloadSwap(t *testing.T) {
	dir := t.TempDir()
	if err := snapio.Write(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{SnapshotDir: dir})
	defer srv.Close()

	if err := snapio.Write(dir, altDataset(t)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/freshness", nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("freshness during swap: %d %s", rec.Code, rec.Body.String())
					return
				}
				var resp FreshnessResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				total := resp.Totals[StatusFresh] + resp.Totals[StatusWarning] + resp.Totals[StatusStale]
				if total != len(resp.Sources) || total == 0 {
					errs <- fmt.Errorf("incoherent totals %v over %d sources (generation %d)",
						resp.Totals, len(resp.Sources), resp.Generation)
					return
				}
			}
		}()
	}

	rec := postJSON(t, srv.Handler(), "/v1/reload", "")
	close(stop)
	wg.Wait()
	close(errs)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	for err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Error(err)
		}
	}

	var resp FreshnessResponse
	getJSON(t, srv.Handler(), "/v1/freshness", &resp)
	if resp.Generation != 2 || resp.Dataset != "alt" {
		t.Errorf("after swap: generation %d dataset %q", resp.Generation, resp.Dataset)
	}
}
