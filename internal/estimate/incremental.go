package estimate

import (
	"context"
	"fmt"

	"freshsource/internal/obs"
	"freshsource/internal/profile"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Accumulator maintains, per source, the profile.Tracker behind a fit —
// the Kaplan–Meier capture index, the entity-state map and the schedule
// fold — so streamed observations can advance the training cut and refit
// the estimator without rescanning any source history.
//
// The contract, pinned by TestStreamingRefitEquivalence: after any sequence
// of Advance calls ending at cut c, Build returns an Estimator
// byte-identical to NewFit over sources whose logs are the archived events
// plus every streamed delta, fitted at t0 = c. Build and NewFit run one
// pipeline (fitSpec.fit) and differ only in where each source's tracker
// comes from: NewFit reads the whole log at t0 into a fresh tracker, Build
// reuses the one Advance extended. The contract therefore reduces to
// profile.Tracker.Extend's merge, which feeds the per-source folds in
// exactly the order a cold Log sort would. Censored delays (cut − tick)
// depend on the cut, so Build re-enumerates observations from tracker
// state; what that state buys is never touching raw event logs again —
// per-epoch cost is proportional to the corpus, not to accumulated history.
//
// NewFit does not hold an Accumulator: that would keep every source's
// capture and state maps live until the candidate sweep, where NewFit
// builds and drops one tracker per source.
//
// An Accumulator is not safe for concurrent use; callers (the ingestion
// epoch pipeline) serialize Advance/Build.
type Accumulator struct {
	fitSpec
	cut      timeline.Tick
	trackers []*profile.Tracker
	// broken latches a failed or canceled Advance: a partially extended
	// tracker set no longer matches any consistent cut, so every later call
	// fails loudly instead of producing a silently wrong fit.
	broken error
}

// NewAccumulator builds an accumulator positioned at cut t0 over the query
// domain pts (nil = every world point), scanning each source's archived
// history once — the same prefix NewFit at t0 reads. The per-source scans
// fan across opt.Workers (0 = GOMAXPROCS).
func NewAccumulator(ctx context.Context, w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint, opt FitOptions) (*Accumulator, error) {
	f, err := newFitSpec(w, srcs, t0, maxT, pts, opt)
	if err != nil {
		return nil, err
	}
	a := &Accumulator{fitSpec: f, cut: t0, trackers: make([]*profile.Tracker, len(srcs))}
	defer obs.Start("estimate.stream.init.seconds").End()
	if err := fitSweep(ctx, f.workers, len(srcs), func(i int) (err error) {
		a.trackers[i], err = profile.NewTracker(w, srcs[i], t0, f.dom)
		return err
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// Cut returns the current training cut.
func (a *Accumulator) Cut() timeline.Tick { return a.cut }

// MaxT returns the largest future tick estimators built here support; the
// cut must stay strictly below it.
func (a *Accumulator) MaxT() timeline.Tick { return a.maxT }

// Advance folds one committed epoch: the cut moves to newCut and each
// source's tracker consumes its archived events in (cut, newCut] merged
// with perSource[i] — that source's accepted streamed observations, sorted
// by timeline.Less with ticks in (cut, newCut]. newCut must stay strictly
// below MaxT so the estimator keeps a non-empty future window. Any error
// (or cancellation) poisons the accumulator: tracker state may be
// partially advanced and no longer matches a consistent cut.
func (a *Accumulator) Advance(ctx context.Context, newCut timeline.Tick, perSource [][]timeline.Event) error {
	if a.broken != nil {
		return fmt.Errorf("estimate: accumulator poisoned by earlier failure: %w", a.broken)
	}
	if len(perSource) != len(a.srcs) {
		return fmt.Errorf("estimate: %d event slices for %d sources", len(perSource), len(a.srcs))
	}
	if newCut <= a.cut {
		return fmt.Errorf("estimate: cut must advance: %d -> %d", a.cut, newCut)
	}
	if newCut >= a.maxT {
		return fmt.Errorf("estimate: cut %d must stay below maxT %d", newCut, a.maxT)
	}
	defer obs.Start("estimate.stream.advance.seconds").End()
	if err := fitSweep(ctx, a.workers, len(a.srcs), func(i int) error {
		return a.trackers[i].Extend(newCut, perSource[i])
	}); err != nil {
		a.broken = err
		return err
	}
	a.cut = newCut
	return nil
}

// Build fits an estimator at the current cut through the same pipeline as
// NewFit, taking each source's profile from its maintained tracker. Build
// does not mutate the accumulator, so a failed downstream publish can
// simply retry it.
func (a *Accumulator) Build(ctx context.Context) (*Estimator, error) {
	if a.broken != nil {
		return nil, fmt.Errorf("estimate: accumulator poisoned by earlier failure: %w", a.broken)
	}
	defer obs.Start("estimate.stream.build.seconds").End()
	e, err := a.fit(ctx, a.cut, func(i int) (*profile.Profile, error) { return a.trackers[i].Build(), nil })
	if err != nil {
		return nil, err
	}
	obs.Counter("estimate.stream.builds").Inc()
	return e, nil
}
