package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"freshsource/internal/dataset"
	"freshsource/internal/obs"
	"freshsource/internal/snapio"
)

// tenantServer builds a multi-tenant server: the fixture dataset as the
// default tenant plus the alt dataset as tenant "alt".
func tenantServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Tenants = append(cfg.Tenants, TenantSpec{Name: "alt", Dataset: altDataset(t)})
	s, err := New(testDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTenantIsolationByteIdentical pins the tenancy contract: every
// tenant-addressed response from a multi-tenant daemon is byte-identical to
// the same request against a dedicated single-tenant daemon over the same
// data — under concurrent cross-tenant traffic.
func TestTenantIsolationByteIdentical(t *testing.T) {
	multi := tenantServer(t, Config{MaxInflight: 64})
	defer multi.Close()
	dedDef := newServer(t, Config{})
	defer dedDef.Close()
	dedAlt, err := New(altDataset(t), Config{DefaultTenant: "alt"})
	if err != nil {
		t.Fatal(err)
	}
	defer dedAlt.Close()

	type probe struct {
		method, path, body string
	}
	probes := []probe{
		{http.MethodPost, "/v1/select", `{"algorithm":"greedy","future":4}`},
		{http.MethodPost, "/v1/quality", `{"set":[0,2,5],"ticks":[150,200]}`},
		{http.MethodGet, "/v1/freshness", ""},
		{http.MethodGet, "/v1/sources", ""},
	}
	do := func(s *Server, pr probe, tenant string) (int, string) {
		path := pr.path
		if tenant != "" {
			path += "?tenant=" + tenant
		}
		if pr.method == http.MethodGet {
			rec := getJSON(t, s.Handler(), path, nil)
			return rec.Code, rec.Body.String()
		}
		rec := postJSON(t, s.Handler(), path, pr.body)
		return rec.Code, rec.Body.String()
	}

	// References from the dedicated daemons first (sequential).
	wantDef := make([]string, len(probes))
	wantAlt := make([]string, len(probes))
	for i, pr := range probes {
		code, body := do(dedDef, pr, "")
		if code != http.StatusOK {
			t.Fatalf("dedicated default %s: %d %s", pr.path, code, body)
		}
		wantDef[i] = body
		if code, body = do(dedAlt, pr, ""); code != http.StatusOK {
			t.Fatalf("dedicated alt %s: %d %s", pr.path, code, body)
		}
		wantAlt[i] = body
	}

	// Hammer the multi-tenant daemon with interleaved cross-tenant traffic.
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for round := 0; round < 4; round++ {
		for i, pr := range probes {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if code, body := do(multi, pr, ""); code != http.StatusOK || body != wantDef[i] {
					errs <- fmt.Sprintf("default tenant %s: code %d, bytes diverge from dedicated daemon", pr.path, code)
				}
			}()
			go func() {
				defer wg.Done()
				if code, body := do(multi, pr, "alt"); code != http.StatusOK || body != wantAlt[i] {
					errs <- fmt.Sprintf("tenant alt %s: code %d, bytes diverge from dedicated daemon", pr.path, code)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestTenantUnknown404: an unknown tenant is a 404 on every endpoint and
// counts on serve.tenant.unknown; it never falls through to another
// tenant's data.
func TestTenantUnknown404(t *testing.T) {
	srv := tenantServer(t, Config{MaxInflight: 64})
	defer srv.Close()

	n0 := counter("serve.tenant.unknown")
	for _, path := range []string{"/v1/select?tenant=nope", "/v1/quality?tenant=nope", "/v1/reload?tenant=nope"} {
		if rec := postJSON(t, srv.Handler(), path, `{}`); rec.Code != http.StatusNotFound {
			t.Errorf("%s: got %d want 404: %s", path, rec.Code, rec.Body.String())
		}
	}
	for _, path := range []string{"/v1/sources?tenant=nope", "/v1/freshness?tenant=nope"} {
		if rec := getJSON(t, srv.Handler(), path, nil); rec.Code != http.StatusNotFound {
			t.Errorf("%s: got %d want 404: %s", path, rec.Code, rec.Body.String())
		}
	}
	if got := counter("serve.tenant.unknown") - n0; got != 5 {
		t.Errorf("serve.tenant.unknown delta = %d, want 5", got)
	}
}

// TestTenantReloadIsolation reloads one tenant under live load on another:
// the other tenant's generation and response bytes must not move.
func TestTenantReloadIsolation(t *testing.T) {
	dir := t.TempDir()
	if err := snapio.Write(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(testDataset(t), Config{
		SnapshotDir: dir,
		Tenants:     []TenantSpec{{Name: "alt", Dataset: altDataset(t)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const altSel = `{"algorithm":"greedy","future":4}`
	want := postJSON(t, srv.Handler(), "/v1/select?tenant=alt", altSel)
	if want.Code != http.StatusOK {
		t.Fatalf("alt select: %d %s", want.Code, want.Body.String())
	}
	altT, err := srv.Tenant("alt")
	if err != nil {
		t.Fatal(err)
	}
	gen0 := altT.Generation()

	// Roll the default tenant's snapshot to different data, then reload it
	// while tenant alt serves concurrent traffic.
	other := altDataset(t)
	other.Name = "rolled"
	if err := snapio.Write(dir, other); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var loadErr sync.Once
	var failed string
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			rec := postJSON(t, srv.Handler(), "/v1/select?tenant=alt", altSel)
			if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
				loadErr.Do(func() { failed = fmt.Sprintf("alt under reload: %d", rec.Code) })
				return
			}
		}
	}()
	info, err := srv.ReloadTenant(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if failed != "" {
		t.Error(failed)
	}
	if !info.Swapped || info.Tenant != srv.def.name || info.Dataset != "rolled" {
		t.Errorf("reload info: %+v", info)
	}
	if altT.Generation() != gen0 {
		t.Errorf("tenant alt generation moved %d -> %d on another tenant's reload", gen0, altT.Generation())
	}
	if rec := postJSON(t, srv.Handler(), "/v1/select?tenant=alt", altSel); rec.Body.String() != want.Body.String() {
		t.Error("tenant alt bytes diverged after another tenant's reload")
	}
	// The default tenant really did swap.
	if got := srv.Generation(); got != 2 {
		t.Errorf("default tenant generation = %d, want 2", got)
	}
}

// TestTenantObserveCommitIsolation streams observations into one tenant and
// commits its epoch: the tenant's generation advances and matches a
// dedicated single-tenant daemon fed the same events byte-for-byte, while
// the other tenant stays on generation 1.
func TestTenantObserveCommitIsolation(t *testing.T) {
	d := testDataset(t)
	t0 := int64(d.T0)
	events := observeBody(
		ev(0, 3, t0+5, "appear", 0),
		ev(1, 3, t0+6, "update", 1),
		ev(2, 9, t0+8, "appear", 0),
	)
	const sel = `{"algorithm":"greedy","future":4}`

	multi, err := New(d, Config{
		IngestEpoch: time.Hour,
		Tenants:     []TenantSpec{{Name: "alt", Dataset: altDataset(t)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	ded := newServer(t, ingestConfig(""))
	defer ded.Close()

	for name, h := range map[string]*Server{"multi": multi, "dedicated": ded} {
		if rec := postJSON(t, h.Handler(), "/v1/observe", events); rec.Code != 202 {
			t.Fatalf("%s observe: %d %s", name, rec.Code, rec.Body.String())
		}
	}
	if _, err := multi.CommitTenantEpoch(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ded.CommitTenantEpoch(context.Background(), ""); err != nil {
		t.Fatal(err)
	}

	if got := multi.Generation(); got != 2 {
		t.Errorf("default tenant generation after commit = %d, want 2", got)
	}
	altT, _ := multi.Tenant("alt")
	if got := altT.Generation(); got != 1 {
		t.Errorf("tenant alt generation = %d, want 1 (no events streamed to it)", got)
	}

	wantSel := postJSON(t, ded.Handler(), "/v1/select", sel)
	gotSel := postJSON(t, multi.Handler(), "/v1/select", sel)
	if wantSel.Code != http.StatusOK || gotSel.Body.String() != wantSel.Body.String() {
		t.Error("post-commit select bytes diverge from the dedicated daemon")
	}

	// Streaming into tenant alt commits independently.
	altEvents := observeBody(ev(0, 4, t0+9, "appear", 0))
	if rec := postJSON(t, multi.Handler(), "/v1/observe?tenant=alt", altEvents); rec.Code != 202 {
		t.Fatalf("alt observe: %d %s", rec.Code, rec.Body.String())
	}
	epi, err := multi.CommitTenantEpoch(context.Background(), "alt")
	if err != nil {
		t.Fatal(err)
	}
	if epi == nil || epi.Generation != 2 {
		t.Errorf("alt commit: %+v", epi)
	}
	if got := multi.Generation(); got != 2 {
		t.Errorf("default tenant generation moved to %d on alt's commit", got)
	}
}

// TestObserveWithoutIngestIs409: with ingestion enabled, /v1/observe exists;
// CommitTenantEpoch on an unknown tenant errors cleanly.
func TestCommitUnknownTenant(t *testing.T) {
	srv := newServer(t, ingestConfig(""))
	defer srv.Close()
	if _, err := srv.CommitTenantEpoch(context.Background(), "nope"); err == nil {
		t.Error("commit on unknown tenant did not error")
	}
	if _, err := srv.ReloadTenant(context.Background(), "nope"); err == nil {
		t.Error("reload on unknown tenant did not error")
	}
}

// TestTenantManifest round-trips the on-disk manifest: relative snapshot
// paths resolve against the manifest directory and the loaded tenants
// serve their own snapshots.
func TestTenantManifest(t *testing.T) {
	base := t.TempDir()
	if err := os.MkdirAll(filepath.Join(base, "snapshots"), 0o755); err != nil {
		t.Fatal(err)
	}
	alt := altDataset(t)
	if err := snapio.Write(filepath.Join(base, "snapshots", "alt"), alt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(base, "tenants.json")
	manifest := `{"tenants":[{"name":"alt","snapshot":"snapshots/alt"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	specs, err := LoadTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "alt" {
		t.Fatalf("specs: %+v", specs)
	}
	if !filepath.IsAbs(specs[0].SnapshotDir) {
		t.Errorf("snapshot path %q not resolved against the manifest dir", specs[0].SnapshotDir)
	}

	srv, err := New(testDataset(t), Config{Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var src SourcesResponse
	getJSON(t, srv.Handler(), "/v1/sources?tenant=alt", &src)
	if src.Dataset != alt.Name || src.Tenant != "alt" {
		t.Errorf("manifest tenant serves %q as %q", src.Dataset, src.Tenant)
	}

	// Error cases: unknown field, missing name, missing snapshot.
	for name, bad := range map[string]string{
		"unknown-field":    `{"tenants":[{"name":"x","snapshot":"s","typo":1}]}`,
		"missing-name":     `{"tenants":[{"snapshot":"s"}]}`,
		"missing-snapshot": `{"tenants":[{"name":"x"}]}`,
	} {
		p := filepath.Join(base, name+".json")
		if err := os.WriteFile(p, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTenantManifest(p); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}
}

// TestTenantNameValidation rejects unroutable names and duplicates.
func TestTenantNameValidation(t *testing.T) {
	for _, bad := range []string{"", "-lead", "has space", "q/x"} {
		_, err := New(testDataset(t), Config{Tenants: []TenantSpec{{Name: bad, Dataset: altDataset(t)}}})
		if err == nil || !strings.Contains(err.Error(), "tenant") {
			t.Errorf("name %q accepted (err=%v)", bad, err)
		}
	}
	_, err := New(testDataset(t), Config{Tenants: []TenantSpec{{Name: "default", Dataset: altDataset(t)}}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate tenant name accepted (err=%v)", err)
	}
}

// TestHealthzTenants: /healthz carries a block per tenant with its own
// generation and digest.
func TestHealthzTenants(t *testing.T) {
	srv := tenantServer(t, Config{MaxInflight: 64})
	defer srv.Close()
	var hz struct {
		Status        string                    `json:"status"`
		DefaultTenant string                    `json:"default_tenant"`
		Tenants       map[string]map[string]any `json:"tenants"`
	}
	getJSON(t, srv.Handler(), "/healthz", &hz)
	if hz.Status != "ok" || hz.DefaultTenant != "default" {
		t.Errorf("healthz: %+v", hz)
	}
	if len(hz.Tenants) != 2 {
		t.Fatalf("tenants blocks: %v", hz.Tenants)
	}
	for _, name := range []string{"default", "alt"} {
		blk := hz.Tenants[name]
		if blk == nil || blk["generation"] != float64(1) || blk["digest"] == "" {
			t.Errorf("tenant %s block: %v", name, blk)
		}
	}
	// Per-tenant generation gauges are live.
	if obs.Active().Gauge("serve.tenant.alt.generation").Value() != 1 {
		t.Error("serve.tenant.alt.generation gauge not set")
	}
}

// dataset identity guard: the fixtures must differ, or the isolation tests
// above would vacuously pass.
func TestFixturesDiffer(t *testing.T) {
	a, b := testDataset(t), altDataset(t)
	if a.Name == b.Name && len(a.Sources) == len(b.Sources) {
		sa, sb := a.SizeAt(a.T0), b.SizeAt(b.T0)
		same := true
		for i := range sa {
			if sa[i] != sb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("fixture datasets are indistinguishable")
		}
	}
	_ = dataset.DefaultBLConfig() // keep the import honest if guards change
}
