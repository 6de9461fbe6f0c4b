package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/faults"
	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// Registry keeps what one generation serves from warm across requests:
//
//   - trained: the base model set (key ""), the generation's only
//     statistical fit — from the persistent model cache, a cold fit, or an
//     ingest epoch's refit (SeedTrained) — plus one entry per
//     frequency-divisor list (key "2,3,4" in request order), derived from
//     the base by core.FromEstimator in about 1 ms per 1k sources. Each
//     entry is computed once; concurrent requests for it wait on the first.
//   - results: marshaled /v1/select and /v1/quality response bodies per
//     canonical request, making a repeated query a map lookup (and
//     byte-identical by construction).
//
// Problem and State build per call: a request that misses the result
// cache almost never shares its problem or set with an earlier one.
//
// Both maps are bounded by maxEntries; on overflow a map resets wholesale
// (an epoch flush), except that the base entry survives every reset.
// Hit/miss counters live under serve.registry.* in the obs snapshot; the
// warm hit rate is result_hits / (result_hits + result_misses).
type Registry struct {
	d          *dataset.Dataset
	max        int
	fitWorkers int
	mc         *modelcache.Cache

	// fitCtx scopes every fit this registry runs. Fits are detached from
	// the requests that trigger them — a request whose deadline fires
	// while a fit is in flight abandons the wait, but the fit itself runs
	// to completion and is cached for everyone else. Only Close (the
	// registry being retired: server shutdown, or a reload candidate
	// being rolled back) cancels fits in flight.
	fitCtx    context.Context
	fitCancel context.CancelFunc

	mu      sync.Mutex
	trained map[string]*trainedEntry
	results map[string][]byte
}

// trainedEntry is a compute-once slot: the first requester starts a
// detached computation, everyone (including the first requester) waits
// on ready.
type trainedEntry struct {
	ready chan struct{}
	tr    *core.Trained
	err   error
}

// NewRegistry builds an empty registry over the snapshot. base scopes the
// registry's lifetime: fits in flight are canceled when it is canceled (or
// when Close is called). fitWorkers bounds the model-fitting pool (0 =
// GOMAXPROCS); mc, when non-nil, is the persistent model cache consulted
// before the base fit — a verified disk hit skips the statistical fitting
// entirely, which is what makes a restart over an unchanged snapshot fast.
func NewRegistry(base context.Context, d *dataset.Dataset, maxEntries, fitWorkers int, mc *modelcache.Cache) *Registry {
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	return &Registry{
		d:          d,
		max:        maxEntries,
		fitWorkers: fitWorkers,
		mc:         mc,
		fitCtx:     ctx,
		fitCancel:  cancel,
		trained:    make(map[string]*trainedEntry),
		results:    make(map[string][]byte),
	}
}

// Close retires the registry, canceling any fits in flight. Waiters on a
// canceled fit get its cancellation error; cached entries remain readable
// (in-flight requests on a swapped-out generation finish normally).
func (r *Registry) Close() { r.fitCancel() }

// DivKey canonicalizes a divisor list. Order is preserved: candidate
// numbering depends on it, exactly as freshselect's -divisors flag.
func DivKey(divisors []int) string {
	if len(divisors) == 0 {
		return ""
	}
	parts := make([]string, len(divisors))
	for i, d := range divisors {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// Trained returns the model set for a divisor configuration: the base fit
// for none, else the base's derived variants, computing either on first
// use. The computation runs detached, under the registry's lifecycle
// context rather than ctx: one request's fired deadline must not poison
// the shared entry for every other waiter queued on it. ctx only bounds
// this caller's wait — on expiry the caller gets its own ctx.Err() while
// the computation continues and is cached. A failed entry is not cached,
// so the next request retries.
func (r *Registry) Trained(ctx context.Context, divisors []int) (*core.Trained, error) {
	e, started := r.entry(DivKey(divisors), divisors)
	if started {
		obs.Counter("serve.registry.trained_misses").Inc()
	} else {
		obs.Counter("serve.registry.trained_hits").Inc()
	}

	select {
	case <-e.ready:
		return e.tr, e.err
	case <-ctx.Done():
		obs.Counter("serve.registry.trained_abandoned").Inc()
		return nil, ctx.Err()
	}
}

// entry returns the trained entry for key, starting its detached
// computation when the map has none; started reports that it did. A full
// map is flushed first, keeping only the base entry.
func (r *Registry) entry(key string, divisors []int) (e *trainedEntry, started bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cached, ok := r.trained[key]; ok {
		return cached, false
	}
	if len(r.trained) >= r.max {
		base, ok := r.trained[""]
		r.trained = make(map[string]*trainedEntry)
		if ok {
			r.trained[""] = base
		}
		obs.Counter("serve.registry.evictions").Inc()
	}
	e = &trainedEntry{ready: make(chan struct{})}
	r.trained[key] = e
	go r.compute(key, e, divisors)
	return e, true
}

// compute fills one trained entry and publishes the outcome by closing
// ready. The base entry loads or fits the generation's models; a divisor
// entry waits for the base and derives its candidates and cost model from
// it. A failed entry is removed from the map (if the map still holds it —
// an epoch flush may have dropped a divisor entry already), so the next
// request retries.
func (r *Registry) compute(key string, e *trainedEntry, divisors []int) {
	defer close(e.ready)
	opt := core.TrainOptions{FitWorkers: r.fitWorkers}
	if err := faults.Inject("serve.fit"); err != nil {
		e.err = fmt.Errorf("fit %q: %w", key, err)
	} else if key != "" {
		base, _ := r.entry("", nil)
		<-base.ready
		if e.err = base.err; e.err == nil {
			e.tr, e.err = core.FromEstimator(base.tr.Est, base.tr.T0(), core.TrainOptions{FreqDivisors: divisors})
		}
	} else if r.mc != nil {
		var status modelcache.Status
		e.tr, status, e.err = r.mc.LoadOrFit(r.fitCtx, r.d, opt)
		obs.Counter("serve.registry.modelcache_" + status.String()).Inc()
	} else {
		e.tr, e.err = core.TrainContext(r.fitCtx, r.d.World, r.d.Sources, r.d.T0, opt)
	}
	if e.err != nil {
		r.mu.Lock()
		if r.trained[key] == e {
			delete(r.trained, key)
		}
		r.mu.Unlock()
	}
}

// SeedTrained installs an already fitted base model set, so a generation
// published by the ingestion epoch path serves immediately without
// refitting what the incremental refit just produced. Divisor lists derive
// from it on first use, like from any other base.
func (r *Registry) SeedTrained(tr *core.Trained) {
	e := &trainedEntry{ready: make(chan struct{}), tr: tr}
	close(e.ready)
	r.mu.Lock()
	r.trained[""] = e
	r.mu.Unlock()
}

// Problem builds the selection problem for (divisors, gain, metric,
// budget, ticks) over the warm Trained. Every call builds (counted under
// serve.registry.problem_misses): only the response is cached.
func (r *Registry) Problem(ctx context.Context, divisors []int, gainName, metric string, budget float64, ticks []timeline.Tick) (*core.Problem, error) {
	tr, err := r.Trained(ctx, divisors)
	if err != nil {
		return nil, err
	}
	obs.Counter("serve.registry.problem_misses").Inc()
	g, err := MakeGain(gainName, metric, r.d.World.NumEntities())
	if err != nil {
		return nil, err
	}
	return core.NewProblem(tr, ticks, g, core.ProblemOptions{Budget: budget})
}

// State builds the evaluation state of an explicit candidate set (request
// order preserved — it is the fold order of the miss products) over the
// warm Trained, which it returns too. Every call builds (counted under
// serve.registry.state_misses).
func (r *Registry) State(ctx context.Context, divisors []int, set []int) (*estimate.SetState, *core.Trained, error) {
	tr, err := r.Trained(ctx, divisors)
	if err != nil {
		return nil, nil, err
	}
	obs.Counter("serve.registry.state_misses").Inc()
	return tr.Est.NewSetState(set), tr, nil
}

// CachedResult returns the marshaled response of an identical earlier
// select or quality request, if still cached.
func (r *Registry) CachedResult(key string) ([]byte, bool) {
	r.mu.Lock()
	body, ok := r.results[key]
	r.mu.Unlock()
	if ok {
		obs.Counter("serve.registry.result_hits").Inc()
	} else {
		obs.Counter("serve.registry.result_misses").Inc()
	}
	return body, ok
}

// PutResult caches a marshaled select or quality response.
func (r *Registry) PutResult(key string, body []byte) {
	r.mu.Lock()
	if len(r.results) >= r.max {
		r.results = make(map[string][]byte)
		obs.Counter("serve.registry.evictions").Inc()
	}
	r.results[key] = body
	r.mu.Unlock()
}
