// Command freshd is the long-running face of the library: it loads one
// world/source snapshot at startup, fits the statistical models once, and
// serves selection and quality queries over JSON with a warm model
// registry, per-request timeouts, bounded concurrency and graceful drain.
//
// Usage:
//
//	freshd -kind bl -scale 0.5 -addr :8080
//	freshd -load snapshots/bl-small -timeout 10s -max-inflight 8
//	freshd -load snapshots/bl-small -obs.dump /var/run/freshd.obs.json -obs.interval 30s
//	freshd -load snapshots/main -tenant eu=snapshots/eu -tenant us=snapshots/us
//	freshd -kind bl -tenants.manifest tenants.json
//
// One daemon can host many named worlds (tenants): the dataset from
// -load/-kind is the default tenant, and each -tenant name=snapshot-dir
// (or manifest entry) adds an isolated world with its own generation
// lineage, model-cache scope and coalescers. Requests address tenants with
// ?tenant=name on every endpoint.
//
// Endpoints: POST /v1/select, POST /v1/quality, GET /v1/sources,
// POST /v1/reload, POST /v1/observe (with -ingest.epoch),
// GET /v1/freshness, GET /healthz, GET /metrics
// (Prometheus text exposition; ?format=json for the raw snapshot). A
// served selection is byte-identical to a freshselect run over the same
// snapshot and options.
//
// When serving a persisted snapshot (-load), the daemon hot-reloads it on
// SIGHUP or POST /v1/reload: the candidate is staged, validated and fitted
// off to the side, then atomically swapped in without dropping in-flight
// requests; any failure rolls back to the last-good generation, which
// keeps serving.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"freshsource/internal/obs"
	"freshsource/internal/serve"
	"freshsource/internal/version"
)

// tenantFlags collects repeatable -tenant name=snapshot-dir declarations.
type tenantFlags []serve.TenantSpec

func (f *tenantFlags) String() string {
	names := make([]string, len(*f))
	for i, sp := range *f {
		names[i] = sp.Name + "=" + sp.SnapshotDir
	}
	return strings.Join(names, ",")
}

func (f *tenantFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=snapshot-dir, got %q", v)
	}
	*f = append(*f, serve.TenantSpec{Name: name, SnapshotDir: dir})
	return nil
}

func main() {
	var tenants tenantFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		load        = flag.String("load", "", "load a persisted dataset directory instead of generating")
		kind        = flag.String("kind", "bl", "dataset kind when generating: bl or gdelt")
		scale       = flag.Float64("scale", 0.5, "dataset scale when generating")
		seed        = flag.Int64("seed", 1, "dataset seed when generating")
		inflight    = flag.Int("max-inflight", 0, "max concurrent select/quality requests (0 = 2×GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request deadline; an expired solve is canceled and answered 504")
		grace       = flag.Duration("grace", 10*time.Second, "shutdown drain bound for in-flight requests")
		future      = flag.Int("future", 10, "default number of future time points of interest")
		fitWork     = flag.Int("fit.workers", 0, "model-fitting pool size (0 = GOMAXPROCS, 1 = sequential); models are byte-identical at any setting")
		mcDir       = flag.String("modelcache.dir", "", "persistent model cache directory; a verified entry skips the startup fit (empty = disabled)")
		maxBody     = flag.Int64("max-body", 1<<20, "request body cap in bytes; oversized POSTs are rejected with 413")
		reloadTO    = flag.Duration("reload.timeout", 5*time.Minute, "bound on staging+fitting a hot-reloaded snapshot; on expiry the candidate is discarded")
		ingestEpoch = flag.Duration("ingest.epoch", 0, "streaming-ingestion epoch interval; >0 enables POST /v1/observe and periodic incremental refit (mutually exclusive with -load hot reload)")
		ingestDir   = flag.String("ingest.dir", "", "durable epoch-log directory; committed epochs are recovered on restart (empty = in-memory only)")
		ingestLag   = flag.Int("ingest.maxlag", 0, "max buffered observations before /v1/observe sheds load with 429 (0 = 65536)")
		freshWarn   = flag.Float64("freshness.warn", 1.5, "GET /v1/freshness warning threshold, as a multiple of each source's fitted update interval")
		freshStale  = flag.Float64("freshness.stale", 3.0, "GET /v1/freshness stale threshold, as a multiple of each source's fitted update interval")
		defTenant   = flag.String("default-tenant", "default", "name of the default tenant (the -load/-kind dataset)")
		manifest    = flag.String("tenants.manifest", "", "JSON tenants manifest adding named worlds (see serve.LoadTenantManifest)")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Var(&tenants, "tenant", "add a named world: name=snapshot-dir (repeatable)")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Parse()

	if *showVersion {
		fmt.Println("freshd", version.String())
		return
	}

	if bound, err := of.Activate(); err != nil {
		fatal(err)
	} else if bound != "" {
		fmt.Fprintf(os.Stderr, "freshd: pprof/expvar on http://%s/debug/pprof/\n", bound)
	}
	defer of.Finish(os.Stderr)

	d, err := serve.LoadDataset(*load, *kind, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "freshd %s: dataset %s: %d sources, %d entities, t0=%d\n",
		version.String(), d.Name, len(d.Sources), d.World.NumEntities(), d.T0)

	specs := []serve.TenantSpec(tenants)
	if *manifest != "" {
		fromFile, err := serve.LoadTenantManifest(*manifest)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, fromFile...)
	}

	srv, err := serve.New(d, serve.Config{
		Addr:                 *addr,
		MaxInflight:          *inflight,
		RequestTimeout:       *timeout,
		ShutdownGrace:        *grace,
		DefaultFuture:        *future,
		FitWorkers:           *fitWork,
		ModelCacheDir:        *mcDir,
		SnapshotDir:          *load,
		ReloadTimeout:        *reloadTO,
		MaxBodyBytes:         *maxBody,
		IngestEpoch:          *ingestEpoch,
		IngestDir:            *ingestDir,
		IngestMaxLag:         *ingestLag,
		FreshnessWarnFactor:  *freshWarn,
		FreshnessStaleFactor: *freshStale,
		DefaultTenant:        *defTenant,
		Tenants:              specs,
	})
	if err != nil {
		fatal(err)
	}
	if names := srv.TenantNames(); len(names) > 1 {
		fmt.Fprintf(os.Stderr, "freshd: hosting %d tenants: %s\n", len(names), strings.Join(names, ", "))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads every reloadable tenant's snapshot. The loop
	// serializes naturally per tenant: each reload holds its tenant's
	// reload lock, and a tenant with no snapshot directory is skipped.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			for _, name := range srv.TenantNames() {
				info, err := srv.ReloadTenant(ctx, name)
				switch {
				case err == serve.ErrNotReloadable:
					continue
				case err != nil:
					fmt.Fprintf(os.Stderr, "freshd: tenant %s: reload failed, last-good generation kept: %v\n", name, err)
				case info.Swapped:
					fmt.Fprintf(os.Stderr, "freshd: tenant %s: reloaded %s, now serving generation %d (digest %.12s)\n",
						name, info.Dataset, info.Generation, info.Digest)
				default:
					fmt.Fprintf(os.Stderr, "freshd: tenant %s: snapshot unchanged, generation %d kept\n", name, info.Generation)
				}
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "freshd: serving on %s\n", *addr)
	if err := srv.ListenAndServe(ctx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "freshd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freshd:", err)
	os.Exit(1)
}
