package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"freshsource/internal/dataset"
	"freshsource/internal/ingest"
	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/snapio"
)

// TenantSpec declares one named world the server hosts. Exactly one of
// Dataset (an in-process corpus) or SnapshotDir (a snapio directory, which
// also makes the tenant hot-reloadable) must identify the data; when both
// are set, Dataset is served and SnapshotDir is the reload source —
// exactly the single-tenant freshd -load behavior.
type TenantSpec struct {
	// Name addresses the tenant on every endpoint (?tenant=name). Names
	// must match [A-Za-z0-9][A-Za-z0-9_.-]* and be unique per server.
	Name string `json:"name"`
	// Dataset is a pre-loaded corpus (programmatic construction and the
	// default tenant); nil means load from SnapshotDir.
	Dataset *dataset.Dataset `json:"-"`
	// SnapshotDir is the snapio directory backing the tenant: loaded at
	// startup when Dataset is nil, and the source of hot reloads either
	// way. Empty disables reload for this tenant.
	SnapshotDir string `json:"snapshot,omitempty"`
	// IngestDir is the tenant's durable epoch-log directory, used when the
	// server runs with streaming ingestion (Config.IngestEpoch > 0). Empty
	// keeps this tenant's epochs in memory only. Ingestion and SnapshotDir
	// are mutually exclusive per tenant.
	IngestDir string `json:"ingest_dir,omitempty"`
}

// tenantManifest is the on-disk tenants file: a JSON document listing
// every hosted world. See LoadTenantManifest for the format.
type tenantManifest struct {
	Tenants []TenantSpec `json:"tenants"`
}

// LoadTenantManifest reads a tenants manifest file:
//
//	{
//	  "tenants": [
//	    {"name": "eu", "snapshot": "snapshots/eu"},
//	    {"name": "us", "snapshot": "snapshots/us", "ingest_dir": "logs/us"}
//	  ]
//	}
//
// Each entry becomes a TenantSpec loaded from its snapshot directory.
// Unknown fields are an error (a misspelled key silently dropping a tenant
// would be worse), as are data after the document and entries without a
// name or snapshot. Relative snapshot paths are resolved against the
// manifest's own directory, so a manifest can travel with its snapshots.
func LoadTenantManifest(path string) ([]TenantSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant manifest: %w", err)
	}
	var m tenantManifest
	if err := decodeStrict(bytes.NewReader(raw), &m); err != nil {
		return nil, fmt.Errorf("serve: tenant manifest %s: %w", path, err)
	}
	base := filepath.Dir(path)
	for i := range m.Tenants {
		sp := &m.Tenants[i]
		if sp.Name == "" {
			return nil, fmt.Errorf("serve: tenant manifest %s: entry %d has no name", path, i)
		}
		if sp.SnapshotDir == "" {
			return nil, fmt.Errorf("serve: tenant manifest %s: tenant %q has no snapshot", path, sp.Name)
		}
		if !filepath.IsAbs(sp.SnapshotDir) {
			sp.SnapshotDir = filepath.Join(base, sp.SnapshotDir)
		}
		if sp.IngestDir != "" && !filepath.IsAbs(sp.IngestDir) {
			sp.IngestDir = filepath.Join(base, sp.IngestDir)
		}
	}
	return m.Tenants, nil
}

var tenantNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// Tenant is one named world behind the daemon: its own (dataset, registry,
// digest) generation triple behind an atomic pointer, its own ingestion
// pipeline and reload lock, its own model-cache scope and its own
// coalescers. Everything a request touches after tenant resolution hangs
// off this struct, so tenants are fully isolated: a reload or epoch commit
// on one never perturbs another, and per-tenant responses are
// byte-identical to a dedicated single-tenant daemon over the same data.
type Tenant struct {
	name        string
	def         bool   // the default tenant (addressed when ?tenant= is absent)
	scope       string // metric prefix: serve.tenant.<sanitized-name>
	srv         *Server
	mc          *modelcache.Cache
	snapshotDir string

	gen atomic.Pointer[generation]
	ing *ingest.Ingester

	// reloadMu serializes this tenant's generation handoffs (hot reloads
	// and epoch commits); other tenants' handoffs proceed concurrently.
	reloadMu sync.Mutex

	coSelect  *coalescer
	coQuality *coalescer
}

// Name returns the tenant's addressable name.
func (t *Tenant) Name() string { return t.name }

// current returns the tenant's serving generation.
func (t *Tenant) current() *generation { return t.gen.Load() }

// Generation returns the tenant's serving generation id.
func (t *Tenant) Generation() uint64 { return t.current().id }

// Registry exposes the tenant's current warm registry.
func (t *Tenant) Registry() *Registry { return t.current().reg }

// metric returns the tenant-scoped obs name for suffix.
func (t *Tenant) metric(suffix string) string { return t.scope + "." + suffix }

// install publishes a generation as the tenant's current one. The legacy
// serve.reload.generation gauge tracks the default tenant, so single-tenant
// dashboards keep working unchanged.
func (t *Tenant) install(g *generation) {
	t.gen.Store(g)
	obs.Gauge(t.metric("generation")).Set(float64(g.id))
	if t.def {
		obs.Gauge("serve.reload.generation").Set(float64(g.id))
	}
}

// sanitizeScope maps a tenant name onto the obs metric charset (the
// Prometheus exposition re-sanitizes dots into underscores; doing it here
// keeps the JSON snapshot and the exposition consistent).
func sanitizeScope(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// newTenant stages one tenant: resolve its dataset, scope its model cache,
// build and pre-fit generation 1, and (when the server runs ingestion)
// attach its epoch pipeline, including durable-log recovery. On any error
// nothing is published and whatever was opened is closed.
func (s *Server) newTenant(spec TenantSpec, def bool) (*Tenant, error) {
	if !tenantNameRe.MatchString(spec.Name) {
		return nil, fmt.Errorf("serve: invalid tenant name %q", spec.Name)
	}
	d := spec.Dataset
	if d == nil {
		if spec.SnapshotDir == "" {
			return nil, fmt.Errorf("serve: tenant %q has neither a dataset nor a snapshot directory", spec.Name)
		}
		var err error
		if d, err = snapio.Read(spec.SnapshotDir); err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", spec.Name, err)
		}
	}
	if err := validateDataset(d); err != nil {
		return nil, fmt.Errorf("serve: tenant %q: %w", spec.Name, err)
	}

	t := &Tenant{
		name:        spec.Name,
		def:         def,
		scope:       "serve.tenant." + sanitizeScope(spec.Name),
		srv:         s,
		snapshotDir: spec.SnapshotDir,
	}
	// Model-cache scoping: the default tenant keeps the configured root
	// directory (a single-tenant deployment's warm cache survives the
	// upgrade), named tenants get a subdirectory each. Entries are
	// digest-keyed either way — the per-tenant directory only partitions
	// eviction and disk accounting, never correctness.
	if s.cfg.ModelCacheDir != "" {
		dir := s.cfg.ModelCacheDir
		if !def {
			dir = filepath.Join(dir, "tenant-"+spec.Name)
		}
		var err error
		if t.mc, err = modelcache.New(dir); err != nil {
			return nil, fmt.Errorf("serve: tenant %q: model cache: %w", spec.Name, err)
		}
	}
	t.coSelect = newCoalescer(t.metric("coalesce.select"))
	t.coQuality = newCoalescer(t.metric("coalesce.quality"))

	gen, err := t.buildGeneration(context.Background(), 1, d)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: startup fit: %w", spec.Name, err)
	}
	t.install(gen)

	if s.cfg.IngestEpoch > 0 {
		if t.snapshotDir != "" {
			gen.reg.Close()
			return nil, fmt.Errorf("serve: tenant %q: streaming ingestion and snapshot hot reload are mutually exclusive", spec.Name)
		}
		ing, err := ingest.New(context.Background(), d, ingest.Config{
			Dir: spec.IngestDir, MaxPending: s.cfg.IngestMaxLag, FitWorkers: s.cfg.FitWorkers,
		})
		if err != nil {
			gen.reg.Close()
			return nil, fmt.Errorf("serve: tenant %q: ingest: %w", spec.Name, err)
		}
		t.ing = ing
		// Recovery replayed durable epochs: republish them before taking
		// traffic, so the serving generation reflects every committed epoch.
		if ing.Dirty() {
			if _, err := s.commitTenantEpoch(context.Background(), t); err != nil {
				gen.reg.Close()
				ing.Close()
				return nil, fmt.Errorf("serve: tenant %q: ingest recovery: %w", spec.Name, err)
			}
		}
	}
	return t, nil
}

// buildGeneration stages a complete generation over d for this tenant:
// digest, registry, and the pre-fit of the base models under ctx. On
// failure the candidate registry is closed and nothing is published.
func (t *Tenant) buildGeneration(ctx context.Context, id uint64, d *dataset.Dataset) (*generation, error) {
	s := t.srv
	g := &generation{
		id:     id,
		d:      d,
		reg:    NewRegistry(s.life, d, defaultCacheEntries(len(d.Sources)), s.cfg.FitWorkers, t.mc),
		digest: modelcache.Digest(d.World, d.Sources),
	}
	if _, err := g.reg.Trained(ctx, nil); err != nil {
		g.reg.Close()
		return nil, err
	}
	return g, nil
}

// Tenant returns the named tenant, or the default tenant for "".
func (s *Server) Tenant(name string) (*Tenant, error) {
	if name == "" {
		return s.def, nil
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown tenant %q", name)
	}
	return t, nil
}

// TenantNames returns the hosted tenant names in sorted order.
func (s *Server) TenantNames() []string { return append([]string(nil), s.names...) }

// tenantFor resolves the request's tenant (?tenant=name, default tenant
// when absent) and answers unknown names with a 404 (nil return). Every
// resolved request increments the tenant's request counter.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) *Tenant {
	name := r.URL.Query().Get("tenant")
	if name == "" {
		obs.Counter(s.def.metric("requests")).Inc()
		return s.def
	}
	t, ok := s.tenants[name]
	if !ok {
		obs.Counter("serve.tenant.unknown").Inc()
		writeErr(w, http.StatusNotFound, "unknown tenant %q", name)
		return nil
	}
	obs.Counter(t.metric("requests")).Inc()
	return t
}

var errNoIngest = errors.New("serve: ingestion not enabled")
