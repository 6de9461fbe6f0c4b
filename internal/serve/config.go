package serve

import (
	"runtime"
	"time"
)

// Config tunes a freshd server. The zero value is production-serviceable:
// every field has a withDefaults fallback.
type Config struct {
	// Addr is the listen address of ListenAndServe (":8080" by default;
	// use ":0" in tests to bind an ephemeral port).
	Addr string

	// MaxInflight bounds how many selection/quality requests may run
	// concurrently; requests beyond it are rejected with 429 instead of
	// queueing (fail fast so a saturated server stays responsive on
	// /healthz and /metrics). Defaults to 2×GOMAXPROCS.
	MaxInflight int

	// RequestTimeout bounds each selection/quality request; on expiry the
	// solve is canceled (selection discards the sweep in flight) and the
	// client gets 504. Defaults to 30s.
	RequestTimeout time.Duration

	// ShutdownGrace bounds the drain on shutdown: after the listener
	// closes, in-flight requests get this long to finish. Defaults to 10s.
	ShutdownGrace time.Duration

	// DefaultFuture is |Tf| when a request names neither ticks nor future
	// (10, matching freshselect).
	DefaultFuture int

	// FitWorkers bounds the model-fitting pool used when the registry
	// fits: 0 uses GOMAXPROCS, 1 fits sequentially. Fitted models are
	// byte-identical at any setting.
	FitWorkers int

	// ModelCacheDir, when non-empty, enables the persistent model cache:
	// the registry consults it before fitting, so a restart over the same
	// snapshot skips the statistical fits entirely. Empty disables it.
	ModelCacheDir string

	// SnapshotDir, when non-empty, is the snapio dataset directory the
	// server can hot-reload from (SIGHUP or POST /v1/reload): the staged
	// snapshot is validated and fitted off to the side, then atomically
	// swapped in — or rolled back, keeping the last-good generation, on
	// any failure. Empty means the dataset was generated in-process and
	// reload is unavailable.
	SnapshotDir string

	// ReloadTimeout bounds the stage+fit phase of a hot reload; on expiry
	// the candidate is discarded and the serving generation is kept.
	// Defaults to 5m (a reload fits a full model set, so it is bounded
	// like a cold start, not like a request).
	ReloadTimeout time.Duration

	// MaxBodyBytes caps a request body on the POST endpoints; an
	// oversized body is rejected with 413 before it can exhaust memory.
	// Defaults to 1 MiB.
	MaxBodyBytes int64

	// IngestEpoch, when positive, enables streaming ingestion: POST
	// /v1/observe buffers observations and an epoch scheduler commits them
	// at this interval — each commit appends a durable epoch record (when
	// IngestDir is set), folds the delta into the incremental refit and
	// publishes the refitted estimator as a new serving generation.
	// Ingestion is mutually exclusive with SnapshotDir: a hot reload would
	// silently discard streamed history.
	IngestEpoch time.Duration

	// IngestDir, when non-empty, is the durable epoch-log directory; on
	// restart committed epochs are recovered and refolded before serving.
	// Empty keeps epochs in memory only.
	IngestDir string

	// IngestMaxLag bounds buffered (uncommitted) observations; past it
	// /v1/observe sheds load with 429 until the next epoch commit drains
	// the buffer. 0 means ingest.DefaultMaxPending; values above
	// ingest.MaxEpochObservations are clamped so every sealed epoch fits
	// in one durable log frame.
	IngestMaxLag int

	// DefaultTenant names the tenant served when a request carries no
	// ?tenant= parameter; it is the tenant built over the dataset passed to
	// New (with SnapshotDir/IngestDir as its reload/ingest scopes).
	// Defaults to "default".
	DefaultTenant string

	// Tenants declares additional named worlds hosted behind the same
	// daemon, each with its own dataset, generation lineage, model-cache
	// scope, ingest log and coalescers. See TenantSpec and
	// LoadTenantManifest for the manifest file format.
	Tenants []TenantSpec

	// FreshnessWarnFactor and FreshnessStaleFactor are the GET /v1/freshness
	// classification thresholds, as multiples of each source's fitted mean
	// update interval ūS: a source whose age exceeds warn·ūS + capture-lag
	// is "warning", past stale·ūS + capture-lag it is "stale". Defaults
	// 1.5 and 3.0; equal factors collapse the warning band. Requests may
	// override both per call (?warn=&stale=).
	FreshnessWarnFactor  float64
	FreshnessStaleFactor float64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.DefaultFuture <= 0 {
		c.DefaultFuture = 10
	}
	if c.ReloadTimeout <= 0 {
		c.ReloadTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = "default"
	}
	if c.FreshnessWarnFactor <= 0 {
		c.FreshnessWarnFactor = 1.5
	}
	if c.FreshnessStaleFactor <= 0 {
		c.FreshnessStaleFactor = 3.0
	}
	if c.FreshnessStaleFactor < c.FreshnessWarnFactor {
		c.FreshnessStaleFactor = c.FreshnessWarnFactor
	}
	return c
}
