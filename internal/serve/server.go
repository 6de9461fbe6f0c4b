package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"freshsource/internal/dataset"
	"freshsource/internal/ingest"
	"freshsource/internal/obs"
)

// generation is one immutable serving epoch of one tenant: a snapshot, the
// warm registry fitted over it, and identity metadata. Handlers load the
// tenant's current generation once at request start, so a hot reload never
// changes the data under an in-flight request — the old generation stays
// alive (and its caches usable) until the last request holding it returns.
type generation struct {
	id     uint64
	d      *dataset.Dataset
	reg    *Registry
	digest [32]byte
}

// Server is a freshd instance: a registry of named tenants — each a
// hot-swappable (snapshot, registry) generation with its own ingestion
// pipeline and coalescers — behind one admission gate and HTTP surface.
//
// Endpoints (all tenant-addressable via ?tenant=name; the default tenant
// answers when the parameter is absent, unknown names are a 404):
//
//	POST /v1/select   run a selection algorithm (gated, timed out, cached, coalesced)
//	POST /v1/quality  evaluate an explicit candidate set (gated, timed out, cached, coalesced)
//	GET  /v1/sources  describe the tenant's loaded snapshot
//	POST /v1/reload   stage, validate, fit and swap in a new snapshot for one tenant
//	POST /v1/observe  buffer streamed observations for the tenant's next ingest epoch
//	GET  /v1/freshness classify every source fresh/warning/stale
//	GET  /healthz     liveness + build version + per-tenant serving generations
//	GET  /metrics     Prometheus text exposition (?format=json for the raw snapshot)
type Server struct {
	cfg  Config
	gate *Gate
	mux  *http.ServeMux
	addr atomic.Value // string; bound address once serving

	// tenants maps every hosted world by name; def is the one addressed
	// when ?tenant= is absent. The map is immutable after New — per-tenant
	// mutation happens behind each tenant's own atomic generation pointer.
	tenants map[string]*Tenant
	names   []string // sorted tenant names
	def     *Tenant

	// start anchors the uptime reported by /healthz.
	start time.Time

	// life scopes every registry's detached fits and every coalesced
	// compute; stop cancels them all on shutdown.
	life context.Context
	stop context.CancelFunc
}

// New builds a server hosting the default tenant over d plus every
// cfg.Tenants entry, and pre-fits each tenant's base models so the first
// request pays no training cost. Telemetry is enabled globally: a daemon
// always wants /metrics live.
func New(d *dataset.Dataset, cfg Config) (*Server, error) {
	if err := validateDataset(d); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	obs.Enable()

	life, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		gate:    NewGate(cfg.MaxInflight),
		tenants: make(map[string]*Tenant),
		life:    life,
		stop:    stop,
		start:   time.Now(),
	}
	specs := append([]TenantSpec{{
		Name:        cfg.DefaultTenant,
		Dataset:     d,
		SnapshotDir: cfg.SnapshotDir,
		IngestDir:   cfg.IngestDir,
	}}, cfg.Tenants...)
	for i, spec := range specs {
		if _, dup := s.tenants[spec.Name]; dup {
			s.Close()
			return nil, fmt.Errorf("serve: duplicate tenant name %q", spec.Name)
		}
		t, err := s.newTenant(spec, i == 0)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.tenants[t.name] = t
		s.names = append(s.names, t.name)
	}
	sort.Strings(s.names)
	s.def = s.tenants[cfg.DefaultTenant]

	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/select", obs.Instrument("select", s.gated(http.HandlerFunc(s.handleSelect))))
	s.mux.Handle("/v1/quality", obs.Instrument("quality", s.gated(http.HandlerFunc(s.handleQuality))))
	s.mux.Handle("/v1/sources", obs.Instrument("sources", http.HandlerFunc(s.handleSources)))
	s.mux.Handle("/v1/reload", obs.Instrument("reload", http.HandlerFunc(s.handleReload)))
	s.mux.Handle("/v1/freshness", obs.Instrument("freshness", http.HandlerFunc(s.handleFreshness)))
	if cfg.IngestEpoch > 0 {
		s.mux.Handle("/v1/observe", obs.Instrument("observe", http.HandlerFunc(s.handleObserve)))
	}
	s.mux.Handle("/healthz", obs.Instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("/metrics", obs.Instrument("metrics", http.HandlerFunc(s.handleMetrics)))
	return s, nil
}

func validateDataset(d *dataset.Dataset) error {
	if d == nil || d.World == nil || len(d.Sources) == 0 {
		return errors.New("serve: empty dataset")
	}
	if d.T0 < 0 || d.T0 >= d.Horizon() {
		return fmt.Errorf("serve: t0 %d outside [0, horizon %d)", d.T0, d.Horizon())
	}
	return nil
}

// defaultCacheEntries is the corpus-scaled bound on each registry cache
// (results, problems, set states) of a generation; on overflow a cache is
// reset wholesale. Cache keys and memoized set states grow linearly with
// the candidate count, so the entry budget shrinks inversely past 2048
// sources (floor 512) to keep per-generation cache memory roughly constant
// from toy corpora up to the 15k-source paper regime.
func defaultCacheEntries(sources int) int {
	const base, pivot, floor = 4096, 2048, 512
	if sources <= pivot {
		return base
	}
	n := base * pivot / sources
	if n < floor {
		n = floor
	}
	return n
}

// current returns the default tenant's serving generation (the
// single-tenant view; handlers resolve their tenant explicitly).
func (s *Server) current() *generation { return s.def.current() }

// install publishes a generation on the default tenant (test seam).
func (s *Server) install(g *generation) { s.def.install(g) }

// Generation returns the default tenant's serving generation id (1 at
// startup, incremented by every successful reload swap or epoch publish).
func (s *Server) Generation() uint64 { return s.current().id }

// Ingester exposes the default tenant's ingestion pipeline (nil unless the
// server runs with Config.IngestEpoch > 0), for tests and diagnostics.
func (s *Server) Ingester() *ingest.Ingester { return s.def.ing }

// gated wraps a heavy endpoint behind the admission gate: saturation is an
// immediate 429, never a queue. Retry-After is derived from the observed
// p95 latency of the heavy routes, so clients back off proportionally to
// how long a slot is actually held.
func (s *Server) gated(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.gate.TryAcquire() {
			w.Header().Set("Retry-After", retryAfter())
			writeErr(w, http.StatusTooManyRequests,
				"server saturated (%d requests in flight)", s.gate.Capacity())
			return
		}
		defer s.gate.Release()
		next.ServeHTTP(w, r)
	})
}

// retryAfter estimates how long a saturated client should wait before
// retrying: the worst observed p95 across the heavy routes, rounded up to
// whole seconds and clamped to [1, 60]. With no latency data yet (or
// telemetry off) it falls back to 1s.
func retryAfter() string {
	reg := obs.Active()
	if reg == nil {
		return "1"
	}
	p95 := reg.Histogram("http.select.seconds").Quantile(0.95)
	if q := reg.Histogram("http.quality.seconds").Quantile(0.95); q > p95 {
		p95 = q
	}
	secs := int(math.Ceil(p95))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return fmt.Sprintf("%d", secs)
}

// Handler returns the HTTP surface (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the default tenant's current warm registry (for tests
// and diagnostics).
func (s *Server) Registry() *Registry { return s.current().reg }

// Close retires the server's background work: fits in flight on every
// tenant's live generations are canceled and each ingestion log (if any)
// is released. Serve calls it after the drain; tests that never Serve may
// call it directly.
func (s *Server) Close() {
	s.stop()
	for _, t := range s.tenants {
		if t.ing != nil {
			t.ing.Close()
		}
	}
}

// Addr returns the bound listen address once ListenAndServe is up ("" before).
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// ListenAndServe binds cfg.Addr and serves until ctx is canceled, then
// drains gracefully: the listener closes immediately (new connections are
// refused), in-flight requests get cfg.ShutdownGrace to finish.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener (tests bind ":0"
// themselves).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.addr.Store(ln.Addr().String())
	srv := &http.Server{Handler: s.mux}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if s.cfg.IngestEpoch > 0 {
		go s.epochLoop(ctx)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	obs.Counter("serve.shutdowns").Inc()
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	s.Close()
	if err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	return nil
}
