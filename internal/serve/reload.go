package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"

	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/snapio"
)

// ErrNotReloadable reports a reload request on a tenant that has no
// snapshot directory to reload from (it serves an in-process generated
// dataset, which has no on-disk successor).
var ErrNotReloadable = errors.New("serve: no snapshot directory configured; reload unavailable")

// ReloadInfo describes the outcome of a successful ReloadTenant.
type ReloadInfo struct {
	// Tenant names the world the reload acted on.
	Tenant string `json:"tenant"`
	// Generation is the tenant's serving generation after the reload
	// (unchanged when Swapped is false).
	Generation uint64 `json:"generation"`
	// Swapped reports whether a new generation was installed; false means
	// the staged snapshot's digest matched the serving one, so the warm
	// registry was kept.
	Swapped bool `json:"swapped"`
	// Dataset and Digest identify the serving snapshot after the reload.
	Dataset string `json:"dataset"`
	Digest  string `json:"digest"`
}

// ReloadTenant picks up a changed snapshot for the named tenant ("" addresses
// the default) without restarting the daemon.
func (s *Server) ReloadTenant(ctx context.Context, name string) (ReloadInfo, error) {
	t, err := s.Tenant(name)
	if err != nil {
		return ReloadInfo{}, err
	}
	return s.reloadTenant(ctx, t)
}

// reloadTenant picks up a changed snapshot for one tenant. The lifecycle is
// stage → validate → fit → swap, and it is atomic from the traffic's point
// of view:
//
//	stage     re-read the tenant's snapshot directory through snapio
//	          (nothing shared with the serving generation)
//	validate  structural checks plus the modelcache digest of the staged
//	          data; an unchanged digest ends the reload early, keeping the
//	          warm registry (Swapped=false)
//	fit       pre-fit the base models on a candidate registry (through the
//	          persistent model cache when configured), bounded by ctx
//	swap      atomically publish the candidate generation; in-flight
//	          requests finish on the generation they started with
//
// Any failure — unreadable or corrupt snapshot, fit error, fired ctx —
// rolls back: the candidate is discarded, the last-good generation keeps
// serving, and the error is reported to the caller only. Reloads are
// serialized per tenant (concurrent SIGHUP and /v1/reload triggers queue);
// reloads on different tenants proceed independently, and requests on other
// tenants are never perturbed.
//
// Counters: serve.reload.{attempts,success,unchanged,failures}; each
// tenant's serving generation id is its serve.tenant.<name>.generation
// gauge (mirrored by the legacy serve.reload.generation gauge for the
// default tenant) and is also reported by /healthz.
func (s *Server) reloadTenant(ctx context.Context, t *Tenant) (ReloadInfo, error) {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()

	obs.Counter("serve.reload.attempts").Inc()
	sp := obs.Start("serve.reload.seconds")
	defer sp.End()

	cur := t.current()
	if t.snapshotDir == "" {
		obs.Counter("serve.reload.failures").Inc()
		return ReloadInfo{}, ErrNotReloadable
	}

	// Stage + validate: a broken snapshot must be rejected before any
	// serving state is touched.
	d, err := snapio.Read(t.snapshotDir)
	if err == nil {
		err = validateDataset(d)
	}
	if err != nil {
		obs.Counter("serve.reload.failures").Inc()
		return ReloadInfo{}, fmt.Errorf("serve: reload: stage %s: %w", t.snapshotDir, err)
	}

	// An unchanged snapshot is detected by digest before paying for a
	// fit: the warm registry survives a no-op reload.
	if modelcache.Digest(d.World, d.Sources) == cur.digest {
		obs.Counter("serve.reload.unchanged").Inc()
		return t.info(cur, false), nil
	}

	// Fit the candidate, then swap. A fit failure (or a canceled ctx)
	// discards the candidate; the serving generation is never touched.
	cand, err := t.buildGeneration(ctx, cur.id+1, d)
	if err != nil {
		obs.Counter("serve.reload.failures").Inc()
		return ReloadInfo{}, fmt.Errorf("serve: reload: fit: %w", err)
	}
	t.install(cand)
	obs.Counter("serve.reload.success").Inc()
	return t.info(cand, true), nil
}

func (t *Tenant) info(g *generation, swapped bool) ReloadInfo {
	return ReloadInfo{
		Tenant:     t.name,
		Generation: g.id,
		Swapped:    swapped,
		Dataset:    g.d.Name,
		Digest:     hex.EncodeToString(g.digest[:]),
	}
}

// handleReload is the admin trigger for reloadTenant: POST
// /v1/reload?tenant=name. It is deliberately outside the admission gate —
// an operator must be able to roll a snapshot while the server is
// saturated — and bounded by cfg.ReloadTimeout rather than the request
// timeout.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReloadTimeout)
	defer cancel()
	info, err := s.reloadTenant(ctx, t)
	switch {
	case errors.Is(err, ErrNotReloadable):
		writeErr(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, info)
	}
}
