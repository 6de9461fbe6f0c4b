// Package source implements dynamic data sources as observers of the world
// (Definition 2 of the paper): a source covers a set of domain points and
// captures entity appearances, disappearances and value changes with some
// probability and some delay, exposing the result only at its scheduled
// update ticks (its update frequency fS).
//
// The generative model directly produces the phenomena the paper's
// motivating examples document: sources that update frequently but are
// ineffective at deleting stale data (low deletion-capture probability or
// long deletion delays → low freshness despite high update frequency,
// Example 1), and sources that report events with varying delays despite
// daily updates (Example 2).
package source

import (
	"errors"
	"fmt"
	"math"

	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// ID identifies a source within a catalog.
type ID int

// DelayModel samples the delay, in ticks, between a world change and the
// moment the source learns about it (before schedule alignment).
type DelayModel interface {
	// Sample draws a non-negative delay.
	Sample(g *stats.RNG) float64
	// Mean returns the expected delay, used for reporting.
	Mean() float64
}

// ConstantDelay always delays by D ticks.
type ConstantDelay struct{ D float64 }

// Sample implements DelayModel.
func (c ConstantDelay) Sample(*stats.RNG) float64 { return c.D }

// Mean implements DelayModel.
func (c ConstantDelay) Mean() float64 { return c.D }

// ExponentialDelay delays by an exponential variate with the given rate
// (mean 1/Rate ticks).
type ExponentialDelay struct{ Rate float64 }

// Sample implements DelayModel.
func (e ExponentialDelay) Sample(g *stats.RNG) float64 { return g.Exponential(e.Rate) }

// Mean implements DelayModel.
func (e ExponentialDelay) Mean() float64 { return 1 / e.Rate }

// LogNormalDelay delays by a log-normal variate; it models sources with a
// typical short delay but an occasional very long tail.
type LogNormalDelay struct{ Mu, Sigma float64 }

// Sample implements DelayModel.
func (l LogNormalDelay) Sample(g *stats.RNG) float64 { return g.LogNormal(l.Mu, l.Sigma) }

// Mean implements DelayModel.
func (l LogNormalDelay) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// CaptureSpec describes how effectively a source captures one kind of world
// change: the probability it ever captures such a change, and the delay
// with which it does.
type CaptureSpec struct {
	// Prob is the probability the change is ever captured. 1-Prob of the
	// changes are permanently missed — this produces the sub-1 plateaus of
	// the Kaplan–Meier effectiveness distributions (Figure 7).
	Prob float64
	// Delay is the capture-delay model; it may be nil when Prob is 0.
	Delay DelayModel
}

func (c CaptureSpec) validate(what string) error {
	if c.Prob < 0 || c.Prob > 1 {
		return fmt.Errorf("source: %s capture probability %v out of [0,1]", what, c.Prob)
	}
	if c.Prob > 0 && c.Delay == nil {
		return fmt.Errorf("source: %s capture needs a delay model", what)
	}
	return nil
}

// Spec is the generative description of one source.
type Spec struct {
	Name string
	// UpdateInterval is the number of ticks between the source's content
	// refreshes: the source's update frequency is fS = 1/UpdateInterval.
	UpdateInterval timeline.Tick
	// Phase shifts the source's update schedule: updates happen at ticks
	// Phase, Phase+UpdateInterval, Phase+2·UpdateInterval, …
	Phase timeline.Tick
	// Points are the domain points the source observes. Entities outside
	// are never mentioned by the source.
	Points []world.DomainPoint
	// Insert, Delete, Update describe the source's effectiveness at
	// capturing the three kinds of world changes.
	Insert CaptureSpec
	Delete CaptureSpec
	Update CaptureSpec
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.UpdateInterval <= 0 {
		return errors.New("source: UpdateInterval must be positive")
	}
	if s.Phase < 0 || s.Phase >= s.UpdateInterval {
		return errors.New("source: Phase must be in [0, UpdateInterval)")
	}
	if len(s.Points) == 0 {
		return errors.New("source: no observed domain points")
	}
	if err := s.Insert.validate("insert"); err != nil {
		return err
	}
	if err := s.Delete.validate("delete"); err != nil {
		return err
	}
	return s.Update.validate("update")
}

// Source is a materialised source: its capture log over the simulated
// window, derived from a world under a Spec.
type Source struct {
	id   ID
	spec Spec
	log  *timeline.Log
	// horizon is the exclusive end of the observation window.
	horizon timeline.Tick
}

// AlignUp returns the first scheduled update tick of the schedule
// (phase, interval) at or after t — the earliest moment a change known at t
// becomes visible in the source's content. This is the discrete counterpart
// of the paper's TS(t) alignment (Eq. 8): TS(t) is the latest update at or
// before t, and a change occurring at raw time r surfaces at the next
// scheduled update ≥ r.
func AlignUp(t timeline.Tick, interval, phase timeline.Tick) timeline.Tick {
	if interval <= 0 {
		panic("source: non-positive interval")
	}
	if t <= phase {
		return phase
	}
	k := (t - phase + interval - 1) / interval
	return phase + k*interval
}

// FromLog reconstructs a source from its spec and a previously captured
// event log — the loading path for persisted or externally-supplied
// corpora. Events must lie in [0, horizon).
func FromLog(id ID, spec Spec, horizon timeline.Tick, events []timeline.Event) (*Source, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, errors.New("source: non-positive horizon")
	}
	s := &Source{id: id, spec: spec, log: timeline.NewLog(), horizon: horizon}
	for _, e := range events {
		if e.At < 0 || e.At >= horizon {
			return nil, fmt.Errorf("source: event at tick %d outside [0,%d)", e.At, horizon)
		}
		s.log.Append(e)
	}
	return s, nil
}

// Observe simulates a source observing the world w over [0, w.Horizon()).
// Events the source captures after the horizon are simply absent from the
// log (they are the right-censored observations the profilers must handle).
func Observe(w *world.World, id ID, spec Spec, g *stats.RNG) (*Source, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Source{id: id, spec: spec, log: timeline.NewLog(), horizon: w.Horizon()}
	covered := make(map[world.DomainPoint]bool, len(spec.Points))
	for _, p := range spec.Points {
		covered[p] = true
	}
	for _, e := range w.Entities() {
		if !covered[e.Point] {
			continue
		}
		s.observeEntity(&e, g)
	}
	return s, nil
}

// observeEntity rolls the capture dice for one entity's life cycle. The
// insertion probability scales with the entity's visibility, so
// hard-to-find entities are missed by every source — the cross-source
// correlation real corpora exhibit.
func (s *Source) observeEntity(e *world.Entity, g *stats.RNG) {
	spec := s.spec
	if !g.Bernoulli(spec.Insert.Prob * e.Visibility) {
		return // the source permanently misses this entity
	}
	ins := s.align(e.Born, spec.Insert.Delay.Sample(g))
	if ins >= s.horizon {
		return // captured only after the simulated window: censored
	}
	s.log.Append(timeline.Event{Entity: e.ID, Kind: timeline.Appear, At: ins})

	// Value changes: each world update is captured independently; the
	// source cannot reflect a change before it has inserted the entity.
	for v, u := range e.Updates {
		if !g.Bernoulli(spec.Update.Prob) {
			continue
		}
		cap := s.align(u, spec.Update.Delay.Sample(g))
		if cap < ins {
			cap = ins
		}
		if cap >= s.horizon {
			continue
		}
		s.log.Append(timeline.Event{Entity: e.ID, Kind: timeline.Update, At: cap, Version: v + 1})
	}

	// Disappearance: when missed, the stale entry persists forever (the
	// non-deleted entries of Section 3).
	if e.Died >= 0 && g.Bernoulli(spec.Delete.Prob) {
		cap := s.align(e.Died, spec.Delete.Delay.Sample(g))
		if cap < ins {
			cap = ins
		}
		if cap < s.horizon {
			s.log.Append(timeline.Event{Entity: e.ID, Kind: timeline.Disappear, At: cap, Version: len(e.Updates)})
		}
	}
}

// align converts a world-change tick plus a sampled delay into the tick at
// which the change surfaces in the source's content. Sub-tick delays floor
// to the same tick: a change learned within the day appears in that day's
// snapshot (before alignment to the source's update schedule).
func (s *Source) align(at timeline.Tick, delay float64) timeline.Tick {
	known := at + timeline.Tick(math.Floor(delay))
	return AlignUp(known, s.spec.UpdateInterval, s.spec.Phase)
}

// ID returns the source's identifier.
func (s *Source) ID() ID { return s.id }

// Name returns the source's display name.
func (s *Source) Name() string { return s.spec.Name }

// Spec returns the source's generative spec.
func (s *Source) Spec() Spec { return s.spec }

// Log returns the source's capture log. The log is owned by the source.
func (s *Source) Log() *timeline.Log { return s.log }

// Horizon returns the exclusive end of the source's observation window.
func (s *Source) Horizon() timeline.Tick { return s.horizon }

// UpdateInterval returns the source's scheduled update interval (1/fS).
func (s *Source) UpdateInterval() timeline.Tick { return s.spec.UpdateInterval }

// SnapshotAt materialises the source's content at tick t.
func (s *Source) SnapshotAt(t timeline.Tick) *timeline.Snapshot {
	return timeline.Materialize(s.log, t)
}

// Downsample returns a derived source whose updates are acquired at 1/div
// of the original frequency: every captured change is re-aligned to the
// coarser schedule with interval div·UpdateInterval. This implements the
// "varying update frequencies" acquisition of Definition 4 and the
// half-frequency timelines of Figures 1(c) and 1(f). Changes that fall past
// the horizon after re-alignment are dropped (not yet acquired).
func (s *Source) Downsample(div int) (*Source, error) {
	if div < 1 {
		return nil, errors.New("source: downsample divisor must be >= 1")
	}
	if div == 1 {
		return s, nil
	}
	spec := s.spec
	spec.UpdateInterval = s.spec.UpdateInterval * timeline.Tick(div)
	spec.Name = fmt.Sprintf("%s/%d", s.spec.Name, div)
	out := &Source{id: s.id, spec: spec, log: timeline.NewLog(), horizon: s.horizon}
	// Track per-entity insertion tick under the coarse schedule so the
	// clamping invariant (no change visible before insertion) is preserved.
	insAt := make(map[timeline.EntityID]timeline.Tick)
	for _, e := range s.log.Events() {
		at := AlignUp(e.At, spec.UpdateInterval, spec.Phase)
		switch e.Kind {
		case timeline.Appear:
			if at < s.horizon {
				insAt[e.Entity] = at
				out.log.Append(timeline.Event{Entity: e.Entity, Kind: e.Kind, At: at, Version: e.Version})
			}
		default:
			ins, ok := insAt[e.Entity]
			if !ok {
				continue
			}
			if at < ins {
				at = ins
			}
			if at < s.horizon {
				out.log.Append(timeline.Event{Entity: e.Entity, Kind: e.Kind, At: at, Version: e.Version})
			}
		}
	}
	return out, nil
}

// Restrict returns a derived micro-source containing only the entities of
// the given domain points — the "slice" elemental sources of Definition 5.
// The world is needed to map entities to domain points.
func (s *Source) Restrict(w *world.World, pts []world.DomainPoint, name string) *Source {
	keep := make(map[world.DomainPoint]bool, len(pts))
	for _, p := range pts {
		keep[p] = true
	}
	spec := s.spec
	spec.Points = append([]world.DomainPoint(nil), pts...)
	spec.Name = name
	out := &Source{id: s.id, spec: spec, log: timeline.NewLog(), horizon: s.horizon}
	for _, e := range s.log.Events() {
		if keep[w.Entity(e.Entity).Point] {
			out.log.Append(e)
		}
	}
	return out
}
