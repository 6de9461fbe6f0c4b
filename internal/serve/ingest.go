package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/faults"
	"freshsource/internal/ingest"
	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// ObserveEvent is one streamed observation in the body of POST /v1/observe.
type ObserveEvent struct {
	Source  int    `json:"source"`
	Entity  int64  `json:"entity"`
	Kind    string `json:"kind"` // appear|update|disappear
	At      int64  `json:"at"`
	Version int    `json:"version,omitempty"`
}

// ObserveRequest is the body of POST /v1/observe: a batch of observations
// for the next ingest epoch. The batch is atomic — one invalid observation
// rejects it all.
type ObserveRequest struct {
	Observations []ObserveEvent `json:"observations"`
}

// ObserveResponse is the body of a 202 from POST /v1/observe.
type ObserveResponse struct {
	Accepted int `json:"accepted"`
	// Pending is the buffered observation count after this batch;
	// Watermark and Epoch identify the last committed epoch.
	Pending   int    `json:"pending"`
	Watermark int64  `json:"watermark"`
	Epoch     uint64 `json:"epoch"`
}

// EpochInfo describes one published ingest epoch.
type EpochInfo struct {
	// Epoch is the committed epoch sequence number; Generation is the
	// serving generation it was published as.
	Epoch        uint64 `json:"epoch"`
	Generation   uint64 `json:"generation"`
	Watermark    int64  `json:"watermark"`
	Observations int    `json:"observations"`
}

var eventKinds = map[string]timeline.EventKind{
	"appear":    timeline.Appear,
	"update":    timeline.Update,
	"disappear": timeline.Disappear,
}

// handleObserve buffers a batch of streamed observations for one tenant.
// Backpressure (the pending buffer at cfg.IngestMaxLag) is a 429 with
// Retry-After set to the epoch interval; an observation at or behind the
// committed watermark is a 409 (the epoch that covered its tick is already
// sealed), as is a tenant without an ingestion pipeline.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ObserveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	if t.ing == nil {
		writeErr(w, http.StatusConflict, "%v for tenant %q", errNoIngest, t.name)
		return
	}
	if len(req.Observations) == 0 {
		writeErr(w, http.StatusBadRequest, "empty observation batch")
		return
	}
	batch := make([]ingest.Observation, len(req.Observations))
	for i, o := range req.Observations {
		kind, ok := eventKinds[o.Kind]
		if !ok {
			writeErr(w, http.StatusBadRequest, "observation %d: unknown kind %q", i, o.Kind)
			return
		}
		batch[i] = ingest.Observation{
			Source: o.Source,
			Event: timeline.Event{
				Entity:  timeline.EntityID(o.Entity),
				Kind:    kind,
				At:      timeline.Tick(o.At),
				Version: o.Version,
			},
		}
	}
	if err := t.ing.Submit(batch); err != nil {
		var stale *ingest.StaleError
		switch {
		case errors.Is(err, ingest.ErrBackpressure):
			obs.Counter("serve.ingest.backpressure").Inc()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.IngestEpoch.Seconds())+1))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.As(err, &stale):
			obs.Counter("serve.ingest.stale").Inc()
			writeErr(w, http.StatusConflict, "%v", err)
		default:
			obs.Counter("serve.ingest.rejected").Inc()
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	obs.Counter("serve.ingest.accepted").Add(int64(len(batch)))
	obs.Gauge(t.metric("ingest.pending")).Set(float64(t.ing.Pending()))
	if t.def {
		obs.Gauge("serve.ingest.pending").Set(float64(t.ing.Pending()))
	}
	writeJSON(w, http.StatusAccepted, ObserveResponse{
		Accepted:  len(batch),
		Pending:   t.ing.Pending(),
		Watermark: int64(t.ing.Watermark()),
		Epoch:     t.ing.Seq(),
	})
}

// CommitTenantEpoch seals the named tenant's ("" addresses the default)
// pending observations into an epoch and publishes the refit estimator as a
// new serving generation. With nothing pending and nothing dirty it is a
// no-op returning (nil, nil).
func (s *Server) CommitTenantEpoch(ctx context.Context, name string) (*EpochInfo, error) {
	t, err := s.Tenant(name)
	if err != nil {
		return nil, err
	}
	return s.commitTenantEpoch(ctx, t)
}

// commitTenantEpoch seals one tenant's pending observations and publishes
// the refit estimator as that tenant's next serving generation.
//
// The publish mirrors a hot reload's swap semantics: the new generation's
// dataset carries the extended sources with the training cut advanced to
// the epoch watermark, its registry is seeded with the refit model set
// (no cold fit), and in-flight requests finish on the generation they
// started with. On any failure the last-good generation keeps serving and
// the epoch stays dirty — the ingester is Acked only after the generation
// swap, so a publish that fails at any stage ("ingest.publish" fault seam,
// dataset validation, model derivation) is retried by the next commit even
// if no new observations arrive. Commits are serialized per tenant (under
// the same lock as reloads); different tenants commit independently.
func (s *Server) commitTenantEpoch(ctx context.Context, t *Tenant) (*EpochInfo, error) {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	if t.ing == nil {
		return nil, fmt.Errorf("%w for tenant %q", errNoIngest, t.name)
	}
	sp := obs.Start("serve.ingest.commit.seconds")
	defer sp.End()

	ep, err := t.ing.Commit(ctx)
	if err != nil {
		obs.Counter("serve.ingest.epoch_failures").Inc()
		return nil, err
	}
	if ep == nil {
		return nil, nil
	}
	if err := faults.Inject("ingest.publish"); err != nil {
		obs.Counter("serve.ingest.epoch_failures").Inc()
		return nil, fmt.Errorf("serve: epoch %d publish: %w", ep.Seq, err)
	}

	cur := t.current()
	nd := &dataset.Dataset{Name: cur.d.Name, World: cur.d.World, Sources: ep.Sources, T0: ep.Watermark}
	if err := validateDataset(nd); err != nil {
		obs.Counter("serve.ingest.epoch_failures").Inc()
		return nil, fmt.Errorf("serve: epoch %d: %w", ep.Seq, err)
	}
	tr, err := core.FromEstimator(ep.Est, ep.Watermark, core.TrainOptions{FitWorkers: s.cfg.FitWorkers})
	if err != nil {
		obs.Counter("serve.ingest.epoch_failures").Inc()
		return nil, fmt.Errorf("serve: epoch %d: %w", ep.Seq, err)
	}
	g := &generation{
		id:     cur.id + 1,
		d:      nd,
		reg:    NewRegistry(s.life, nd, defaultCacheEntries(len(nd.Sources)), s.cfg.FitWorkers, t.mc),
		digest: modelcache.Digest(nd.World, nd.Sources),
	}
	g.reg.SeedTrained(tr)
	// The old registry is not closed on swap (same rule as reloadTenant):
	// in-flight requests holding the old generation finish on its caches;
	// s.life cancels any stray fits at shutdown.
	t.install(g)
	t.ing.Ack(ep.Seq)
	obs.Counter("serve.ingest.epochs").Inc()
	obs.Counter("serve.ingest.observations").Add(int64(ep.Observations))
	obs.Gauge(t.metric("ingest.epoch")).Set(float64(ep.Seq))
	if t.def {
		obs.Gauge("serve.ingest.epoch").Set(float64(ep.Seq))
		obs.Gauge("serve.ingest.watermark").Set(float64(ep.Watermark))
	}
	return &EpochInfo{
		Epoch:        ep.Seq,
		Generation:   g.id,
		Watermark:    int64(ep.Watermark),
		Observations: ep.Observations,
	}, nil
}

// epochLoop is the ingest scheduler: every cfg.IngestEpoch it commits the
// pending buffer of every ingesting tenant, bounded per tenant per tick by
// cfg.ReloadTimeout (a commit refits a full model set, so it is bounded
// like a reload, not like a request). Commit errors are counted and retried
// on the next tick — observations are never dropped by a failed refit, and
// one tenant's failing refit never stalls another's commits past its slot
// in the sweep.
func (s *Server) epochLoop(ctx context.Context) {
	tick := time.NewTicker(s.cfg.IngestEpoch)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, name := range s.names {
			t := s.tenants[name]
			if t.ing == nil {
				continue
			}
			cctx, cancel := context.WithTimeout(ctx, s.cfg.ReloadTimeout)
			_, err := s.commitTenantEpoch(cctx, t)
			cancel()
			if err != nil && ctx.Err() == nil {
				obs.Counter("serve.ingest.scheduler_errors").Inc()
			}
		}
	}
}
