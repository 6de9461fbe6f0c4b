package serve

import (
	"os"
	"path/filepath"
	"testing"
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
