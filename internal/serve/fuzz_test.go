package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"freshsource/internal/dataset"
)

// FuzzLoadTenantManifest feeds arbitrary bytes to LoadTenantManifest as the
// manifest file. It must never panic, and every spec it accepts names its
// tenant and carries absolute snapshot (and ingest) paths, resolved against
// the manifest's directory: what newTenant reads next. The seeds are
// TestTenantManifest's manifests plus an ingest directory and a trailing
// second document.
func FuzzLoadTenantManifest(f *testing.F) {
	for _, seed := range []string{
		`{"tenants":[{"name":"alt","snapshot":"snapshots/alt"}]}`,
		`{"tenants":[{"name":"x","snapshot":"s","typo":1}]}`,
		`{"tenants":[{"snapshot":"s"}]}`,
		`{"tenants":[{"name":"x"}]}`,
		`{"tenants":[{"name":"us","snapshot":"/srv/us","ingest_dir":"logs/us"}]}` + "\n",
		`{"tenants":[{"name":"a","snapshot":"a"}]}{"tenants":[{"name":"b","snapshot":"b"}]}`,
	} {
		f.Add([]byte(seed))
	}
	// Inputs run one at a time in each process, so they share one file.
	path := filepath.Join(f.TempDir(), "tenants.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		specs, err := LoadTenantManifest(path)
		if err != nil {
			return
		}
		for i, sp := range specs {
			if sp.Name == "" {
				t.Errorf("spec %d accepted without a name", i)
			}
			if !filepath.IsAbs(sp.SnapshotDir) {
				t.Errorf("spec %d (%q): snapshot path %q is not absolute", i, sp.Name, sp.SnapshotDir)
			}
			if sp.IngestDir != "" && !filepath.IsAbs(sp.IngestDir) {
				t.Errorf("spec %d (%q): ingest path %q is not absolute", i, sp.Name, sp.IngestDir)
			}
		}
	})
}

// FuzzHandlers sends arbitrary /v1/select, /v1/quality and /v1/observe
// bodies (route 0, 1 and 2, modulo 3), to the default tenant or a named
// one, through the handler of a server over one tiny tenant. Select and
// quality go to a server without ingestion, where every request must get
// 200, 400, 404, 413 or 429. Observe goes to a second server over the same
// world with ingestion on — epochs in memory, and an epoch interval no run
// reaches, so accepted batches only buffer — where every request must get
// 202, 400, 404, 409, 413 or 429. Never a 500 or a panic, and the
// goroutines a request started must be gone once it has returned. The
// seeds include maxsub bodies with divisors, which run the matroid search,
// and observe batches that are valid, of an unknown kind, outside the
// world and behind the watermark.
func FuzzHandlers(f *testing.F) {
	const (
		selectRoute = iota
		qualityRoute
		observeRoute
	)
	for _, seed := range []struct {
		route  uint8
		tenant string
		body   string
	}{
		{selectRoute, "", `{}`},
		{selectRoute, "", `{"algorithm":"maxsub","divisors":[2]}`},
		{selectRoute, "", `{"algorithm":"maxsub","divisors":[2,3],"budget":0.3}`},
		{selectRoute, "", `{"algorithm":"maxsub","divisors":[3,2],"gain":"data","future":3}`},
		{selectRoute, "", `{"algorithm":"maxsub","divisors":[1,4],"metric":"global-freshness","ticks":[31,35]}`},
		{selectRoute, "", `{"algorithm":"maxsub","divisors":[2,5],"gain":"step","metric":"local-freshness"}`},
		{selectRoute, "", `{"algorithm":"greedy","divisors":[2],"gain":"quad","metric":"accuracy"}`},
		{selectRoute, "", `{"algorithm":"grasp","kappa":2,"rounds":3,"seed":7}`},
		{selectRoute, "", `{"algorithm":"budgeted","budget":0.05}`},
		{selectRoute, "", `{"algorithm":"lazygreedy","gain":"step","metric":"local-freshness"}`},
		{selectRoute, "other", `{}`},
		{qualityRoute, "", `{"set":[0,1]}`},
		{qualityRoute, "", `{"set":[0,5],"divisors":[2],"future":2}`},
		{qualityRoute, "", `{"set":[1,1]}`},
		{qualityRoute, "", `{"set":[],"ticks":[30]}`},
		{observeRoute, "", `{"observations":[{"source":0,"entity":3,"kind":"appear","at":33},{"source":1,"entity":3,"kind":"update","at":34,"version":1}]}`},
		{observeRoute, "", `{"observations":[{"source":0,"entity":3,"kind":"mutate","at":33}]}`},
		{observeRoute, "", `{"observations":[{"source":2,"entity":-5,"kind":"disappear","at":99}]}`},
		{observeRoute, "", `{"observations":[{"source":0,"entity":3,"kind":"appear","at":28}]}`},
		{observeRoute, "other", `{"observations":[{"source":0,"entity":3,"kind":"appear","at":33}]}`},
	} {
		f.Add(seed.route, seed.tenant, []byte(seed.body))
	}
	world := func() *dataset.Dataset {
		cfg := dataset.DefaultBLConfig()
		cfg.Locations, cfg.Categories, cfg.NumSources = 3, 2, 8
		cfg.Horizon, cfg.T0, cfg.Scale = 40, 28, 1
		d, err := dataset.GenerateBL(cfg)
		if err != nil {
			f.Fatal(err)
		}
		return d
	}
	srv, err := New(world(), Config{MaxBodyBytes: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	ing, err := New(world(), Config{MaxBodyBytes: 4 << 10, IngestEpoch: 24 * time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(ing.Close)
	h, ingH := srv.Handler(), ing.Handler()
	f.Fuzz(func(t *testing.T, route uint8, tenant string, body []byte) {
		base := runtime.NumGoroutine()
		handler, path := h, "/v1/select"
		codes := []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests}
		switch route % 3 {
		case qualityRoute:
			path = "/v1/quality"
		case observeRoute:
			handler, path = ingH, "/v1/observe"
			codes = []int{http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
				http.StatusRequestEntityTooLarge, http.StatusTooManyRequests}
		}
		if tenant != "" {
			path += "?" + url.Values{"tenant": {tenant}}.Encode()
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if !slices.Contains(codes, rec.Code) {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("POST %s %q: %d goroutines, %d before", path, body, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
