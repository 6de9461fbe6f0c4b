package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
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

// FuzzHandlers sends arbitrary /v1/select and /v1/quality bodies, to the
// default tenant or a named one, through the handler of a server over one
// tiny tenant. Every request must get 200, 400, 404, 413 or 429 — never a
// 500 or a panic — and the goroutines it started must be gone once it has
// returned. The seeds include maxsub bodies with divisors, which run the
// matroid search.
func FuzzHandlers(f *testing.F) {
	for _, seed := range []struct {
		quality bool
		tenant  string
		body    string
	}{
		{false, "", `{}`},
		{false, "", `{"algorithm":"maxsub","divisors":[2]}`},
		{false, "", `{"algorithm":"maxsub","divisors":[2,3],"budget":0.3}`},
		{false, "", `{"algorithm":"maxsub","divisors":[3,2],"gain":"data","future":3}`},
		{false, "", `{"algorithm":"maxsub","divisors":[1,4],"metric":"global-freshness","ticks":[31,35]}`},
		{false, "", `{"algorithm":"maxsub","divisors":[2,5],"gain":"step","metric":"local-freshness"}`},
		{false, "", `{"algorithm":"greedy","divisors":[2],"gain":"quad","metric":"accuracy"}`},
		{false, "", `{"algorithm":"grasp","kappa":2,"rounds":3,"seed":7}`},
		{false, "", `{"algorithm":"budgeted","budget":0.05}`},
		{false, "", `{"algorithm":"lazygreedy","gain":"step","metric":"local-freshness"}`},
		{false, "other", `{}`},
		{true, "", `{"set":[0,1]}`},
		{true, "", `{"set":[0,5],"divisors":[2],"future":2}`},
		{true, "", `{"set":[1,1]}`},
		{true, "", `{"set":[],"ticks":[30]}`},
	} {
		f.Add(seed.quality, seed.tenant, []byte(seed.body))
	}
	cfg := dataset.DefaultBLConfig()
	cfg.Locations, cfg.Categories, cfg.NumSources = 3, 2, 8
	cfg.Horizon, cfg.T0, cfg.Scale = 40, 28, 1
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(d, Config{MaxBodyBytes: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, quality bool, tenant string, body []byte) {
		base := runtime.NumGoroutine()
		path := "/v1/select"
		if quality {
			path = "/v1/quality"
		}
		if tenant != "" {
			path += "?" + url.Values{"tenant": {tenant}}.Encode()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
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
