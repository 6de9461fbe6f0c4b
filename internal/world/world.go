// Package world implements the evolving data domain Ω of the paper
// (Section 2.2): a universe of entities that appear, change value and
// disappear over discrete time, generated by the statistical processes the
// paper assumes and verifies in Section 4.1.1 — Poisson appearances,
// exponentially distributed lifespans and exponentially distributed value
// update intervals.
//
// The domain is heterogeneous: it is partitioned into subdomains, one per
// domain point (location, category), each with its own process parameters.
// This matches the paper's discussion of learning "a collection of separate
// models for different homogeneous data subdomains".
package world

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"freshsource/internal/stats"
	"freshsource/internal/timeline"
)

// DomainPoint identifies a homogeneous subdomain of Ω. In the BL scenario
// the two discrete dimensions are the listing location and the business
// category; in GDELT they are the event location and event type.
type DomainPoint struct {
	Location int
	Category int
}

// String implements fmt.Stringer.
func (p DomainPoint) String() string { return fmt.Sprintf("(%d,%d)", p.Location, p.Category) }

// SubdomainSpec holds the generative parameters of one subdomain.
type SubdomainSpec struct {
	Point DomainPoint
	// InitialEntities is the number of entities alive at tick 0.
	InitialEntities int
	// LambdaAppear is the Poisson intensity of entity appearances per tick.
	LambdaAppear float64
	// GammaDisappear is the exponential rate of entity lifespans (mean
	// lifespan 1/γd ticks).
	GammaDisappear float64
	// GammaUpdate is the exponential rate of value-update intervals (mean
	// interval 1/γu ticks).
	GammaUpdate float64
	// VisibilityExponent shapes per-entity visibility v = u^k (u uniform):
	// 0 means every entity is fully visible (v = 1); larger values make a
	// growing share of entities hard for every source to find, which
	// correlates misses across sources the way real corpora do (the
	// independence caveat of Section 2.3 of the paper).
	VisibilityExponent float64
	// WeeklyAmplitude A ∈ [0, 1) modulates the appearance intensity with a
	// weekly cycle: λ(t) = λ·(1 + A·sin(2πt/7)). 0 keeps the process
	// homogeneous; positive values produce the day-of-week seasonality
	// real corpora exhibit.
	WeeklyAmplitude float64
}

// Validate reports whether the spec is generatively meaningful.
func (s SubdomainSpec) Validate() error {
	if s.InitialEntities < 0 {
		return errors.New("world: negative InitialEntities")
	}
	if s.LambdaAppear < 0 || s.GammaDisappear < 0 || s.GammaUpdate < 0 {
		return errors.New("world: negative process rate")
	}
	if s.VisibilityExponent < 0 {
		return errors.New("world: negative visibility exponent")
	}
	if s.WeeklyAmplitude < 0 || s.WeeklyAmplitude >= 1 {
		return errors.New("world: weekly amplitude outside [0, 1)")
	}
	return nil
}

// Config configures world generation.
type Config struct {
	Subdomains []SubdomainSpec
	// Horizon is the exclusive end of the simulated window: events happen
	// at ticks 0 … Horizon-1.
	Horizon timeline.Tick
	Seed    int64
}

// Entity is the full ground-truth life of one entity.
type Entity struct {
	ID    timeline.EntityID
	Point DomainPoint
	Born  timeline.Tick
	// Died is the disappearance tick, or -1 if the entity is still alive at
	// the horizon.
	Died timeline.Tick
	// Updates are the ticks of the entity's value changes, increasing.
	Updates []timeline.Tick
	// Visibility in (0, 1] scales how easily any source discovers the
	// entity; 1 means fully visible.
	Visibility float64
}

// Alive reports whether the entity exists at tick t.
func (e *Entity) Alive(t timeline.Tick) bool {
	return e.Born <= t && (e.Died < 0 || t < e.Died)
}

// VersionAt returns the entity's version at tick t (the number of updates
// applied at or before t). The boolean is false when the entity is not
// alive at t.
func (e *Entity) VersionAt(t timeline.Tick) (int, bool) {
	if !e.Alive(t) {
		return 0, false
	}
	v := 0
	for _, u := range e.Updates {
		if u <= t {
			v++
		} else {
			break
		}
	}
	return v, true
}

// World is a fully materialised ground-truth domain evolution.
type World struct {
	entities []Entity
	log      *timeline.Log
	horizon  timeline.Tick
	byPoint  map[DomainPoint][]timeline.EntityID
	specs    map[DomainPoint]SubdomainSpec
}

// FromEntities reconstructs a world from fully-specified entity records —
// the loading path for persisted or externally-supplied corpora. Entity IDs
// must be dense 0…n-1 in slice order; the event log and indexes are
// rebuilt.
func FromEntities(entities []Entity, horizon timeline.Tick) (*World, error) {
	if horizon <= 0 {
		return nil, errors.New("world: non-positive horizon")
	}
	if len(entities) == 0 {
		return nil, errors.New("world: no entities")
	}
	w := &World{
		log:     timeline.NewLog(),
		horizon: horizon,
		byPoint: make(map[DomainPoint][]timeline.EntityID),
		specs:   make(map[DomainPoint]SubdomainSpec),
	}
	for i := range entities {
		e := entities[i]
		if e.ID != timeline.EntityID(i) {
			return nil, fmt.Errorf("world: entity %d has ID %d (IDs must be dense in order)", i, e.ID)
		}
		if e.Born < 0 || e.Born >= horizon {
			return nil, fmt.Errorf("world: entity %d born at %d outside [0,%d)", i, e.Born, horizon)
		}
		if e.Died >= 0 && e.Died <= e.Born {
			return nil, fmt.Errorf("world: entity %d died (%d) not after birth (%d)", i, e.Died, e.Born)
		}
		if e.Visibility <= 0 || e.Visibility > 1 {
			return nil, fmt.Errorf("world: entity %d visibility %v outside (0,1]", i, e.Visibility)
		}
		prev := e.Born
		for v, u := range e.Updates {
			if u <= prev || (e.Died >= 0 && u >= e.Died) {
				return nil, fmt.Errorf("world: entity %d has invalid update tick %d", i, u)
			}
			prev = u
			w.log.Append(timeline.Event{Entity: e.ID, Kind: timeline.Update, At: u, Version: v + 1})
		}
		w.log.Append(timeline.Event{Entity: e.ID, Kind: timeline.Appear, At: e.Born})
		if e.Died >= 0 {
			w.log.Append(timeline.Event{Entity: e.ID, Kind: timeline.Disappear, At: e.Died, Version: len(e.Updates)})
		}
		w.entities = append(w.entities, e)
		w.byPoint[e.Point] = append(w.byPoint[e.Point], e.ID)
		if _, ok := w.specs[e.Point]; !ok {
			w.specs[e.Point] = SubdomainSpec{Point: e.Point}
		}
	}
	return w, nil
}

// Generate simulates a world under cfg.
func Generate(cfg Config) (*World, error) {
	if cfg.Horizon <= 0 {
		return nil, errors.New("world: non-positive horizon")
	}
	if len(cfg.Subdomains) == 0 {
		return nil, errors.New("world: no subdomains")
	}
	w := &World{
		log:     timeline.NewLog(),
		horizon: cfg.Horizon,
		byPoint: make(map[DomainPoint][]timeline.EntityID),
		specs:   make(map[DomainPoint]SubdomainSpec, len(cfg.Subdomains)),
	}
	root := stats.NewRNG(cfg.Seed)
	for _, spec := range cfg.Subdomains {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if _, dup := w.specs[spec.Point]; dup {
			return nil, fmt.Errorf("world: duplicate subdomain %v", spec.Point)
		}
		w.specs[spec.Point] = spec
		g := root.Fork()
		w.generateSubdomain(spec, g)
	}
	return w, nil
}

func (w *World) generateSubdomain(spec SubdomainSpec, g *stats.RNG) {
	// Entities alive at tick 0. By memorylessness their remaining lifespan
	// is Exp(γd), so they are generated like fresh births at tick 0.
	for i := 0; i < spec.InitialEntities; i++ {
		w.spawn(spec, 0, g)
	}
	// Poisson arrivals at ticks 1 … horizon-1 (tick 0 arrivals are the
	// initial population), with optional weekly modulation.
	for t := timeline.Tick(1); t < w.horizon; t++ {
		rate := spec.LambdaAppear
		if spec.WeeklyAmplitude > 0 {
			rate *= 1 + spec.WeeklyAmplitude*math.Sin(2*math.Pi*float64(t)/7)
		}
		n := g.Poisson(rate)
		for i := 0; i < n; i++ {
			w.spawn(spec, t, g)
		}
	}
}

// spawn creates one entity born at tick born, samples its lifespan and
// update times, and appends its events to the world log.
func (w *World) spawn(spec SubdomainSpec, born timeline.Tick, g *stats.RNG) {
	id := timeline.EntityID(len(w.entities))
	e := Entity{ID: id, Point: spec.Point, Born: born, Died: -1, Visibility: 1}
	if spec.VisibilityExponent > 0 {
		e.Visibility = math.Pow(g.Float64(), spec.VisibilityExponent)
		if e.Visibility < 0.01 {
			e.Visibility = 0.01
		}
	}

	died := timeline.Tick(-1)
	if spec.GammaDisappear > 0 {
		// Discretize the continuous lifespan with ceil so every entity
		// lives at least one tick.
		life := timeline.Tick(math.Ceil(g.Exponential(spec.GammaDisappear)))
		if life < 1 {
			life = 1
		}
		if born+life < w.horizon {
			died = born + life
		}
	}
	e.Died = died

	if spec.GammaUpdate > 0 {
		end := w.horizon
		if died >= 0 {
			end = died
		}
		cum := 0.0
		v := 0
		prev := born
		for {
			cum += g.Exponential(spec.GammaUpdate)
			at := born + timeline.Tick(math.Ceil(cum))
			if at >= end {
				break
			}
			if at <= prev {
				// Multiple value changes within one tick collapse into a
				// single daily-snapshot update.
				continue
			}
			v++
			prev = at
			e.Updates = append(e.Updates, at)
			w.log.Append(timeline.Event{Entity: id, Kind: timeline.Update, At: at, Version: v})
		}
	}

	w.log.Append(timeline.Event{Entity: id, Kind: timeline.Appear, At: born})
	if died >= 0 {
		w.log.Append(timeline.Event{Entity: id, Kind: timeline.Disappear, At: died, Version: len(e.Updates)})
	}
	w.entities = append(w.entities, e)
	w.byPoint[spec.Point] = append(w.byPoint[spec.Point], id)
}

// CheckEvent reports why a source event read from outside the program
// cannot belong to this world: its entity lies outside [0, NumEntities),
// its kind is unknown or its version is negative. Snapshot loading and
// streamed observations both check through it, so the two decoders of
// outside events accept the same events.
func (w *World) CheckEvent(e timeline.Event) error {
	if n := len(w.entities); e.Entity < 0 || int(e.Entity) >= n {
		return fmt.Errorf("entity %d outside [0, %d)", e.Entity, n)
	}
	if e.Kind > timeline.Disappear {
		return fmt.Errorf("unknown event kind %d", e.Kind)
	}
	if e.Version < 0 {
		return fmt.Errorf("negative version %d", e.Version)
	}
	return nil
}

// Horizon returns the exclusive end of the simulated window.
func (w *World) Horizon() timeline.Tick { return w.horizon }

// NumEntities returns the total number of entities ever created — the
// universe size for bit-array signatures.
func (w *World) NumEntities() int { return len(w.entities) }

// Entity returns the ground-truth record of one entity.
func (w *World) Entity(id timeline.EntityID) *Entity { return &w.entities[int(id)] }

// Entities returns all entity records. The slice is owned by the world.
func (w *World) Entities() []Entity { return w.entities }

// Log returns the world's ground-truth event log.
func (w *World) Log() *timeline.Log { return w.log }

// Points returns the domain points that have a subdomain, in unspecified
// order.
func (w *World) Points() []DomainPoint {
	pts := make([]DomainPoint, 0, len(w.specs))
	for p := range w.specs {
		pts = append(pts, p)
	}
	// The spec index is a map; sort so the point order — and with it the
	// accumulation order of every per-point float sum downstream — is the
	// same on every call and in every process. Estimates must be
	// bit-reproducible (the serving layer promises byte-identical replays).
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Location != pts[j].Location {
			return pts[i].Location < pts[j].Location
		}
		return pts[i].Category < pts[j].Category
	})
	return pts
}

// Spec returns the generative spec of a subdomain.
func (w *World) Spec(p DomainPoint) (SubdomainSpec, bool) {
	s, ok := w.specs[p]
	return s, ok
}

// EntitiesOf returns the IDs of all entities belonging to the domain point.
// The slice is owned by the world.
func (w *World) EntitiesOf(p DomainPoint) []timeline.EntityID { return w.byPoint[p] }

// AliveCount returns the number of entities of the given points (all points
// when pts is nil) alive at tick t — the paper's |Ω|t.
func (w *World) AliveCount(t timeline.Tick, pts []DomainPoint) int {
	n := 0
	if pts == nil {
		for i := range w.entities {
			if w.entities[i].Alive(t) {
				n++
			}
		}
		return n
	}
	for _, p := range pts {
		for _, id := range w.byPoint[p] {
			if w.entities[int(id)].Alive(t) {
				n++
			}
		}
	}
	return n
}

// forEntities calls fn for every entity of the given points, using the
// per-point index when a restriction is given (nil = all entities).
func (w *World) forEntities(pts []DomainPoint, fn func(e *Entity)) {
	if pts == nil {
		for i := range w.entities {
			fn(&w.entities[i])
		}
		return
	}
	for _, p := range pts {
		for _, id := range w.byPoint[p] {
			fn(&w.entities[int(id)])
		}
	}
}

// AppearanceCounts returns, for each tick in [lo, hi), the number of entity
// appearances in the given points (all when nil). This feeds the Poisson
// fits of Figures 5a and 6.
func (w *World) AppearanceCounts(lo, hi timeline.Tick, pts []DomainPoint) []int {
	if hi < lo {
		panic("world: AppearanceCounts with hi < lo")
	}
	counts := make([]int, int(hi-lo))
	w.forEntities(pts, func(e *Entity) {
		if e.Born >= lo && e.Born < hi {
			counts[int(e.Born-lo)]++
		}
	})
	return counts
}

// Lifespans returns the (possibly right-censored at the window end) lifespan
// observations of entities born before window end, restricted to the given
// points (all when nil). This feeds Eq. 7 and Figure 5b.
func (w *World) Lifespans(windowEnd timeline.Tick, pts []DomainPoint) []stats.Duration {
	var out []stats.Duration
	w.forEntities(pts, func(e *Entity) {
		if e.Born >= windowEnd {
			return
		}
		if e.Died >= 0 && e.Died <= windowEnd {
			out = append(out, stats.Duration{Value: float64(e.Died - e.Born)})
		} else {
			out = append(out, stats.Duration{Value: float64(windowEnd - e.Born), Censored: true})
		}
	})
	return out
}

// UpdateIntervals returns the (possibly censored) intervals between
// consecutive value changes observed up to windowEnd, restricted to the
// given points (all when nil). The censored observation is the time from
// the last change (or birth) to the window end or the entity's death.
func (w *World) UpdateIntervals(windowEnd timeline.Tick, pts []DomainPoint) []stats.Duration {
	var out []stats.Duration
	w.forEntities(pts, func(e *Entity) {
		if e.Born >= windowEnd {
			return
		}
		last := e.Born
		for _, u := range e.Updates {
			if u > windowEnd {
				break
			}
			out = append(out, stats.Duration{Value: float64(u - last)})
			last = u
		}
		end := windowEnd
		if e.Died >= 0 && e.Died < end {
			end = e.Died
		}
		if end > last {
			out = append(out, stats.Duration{Value: float64(end - last), Censored: true})
		}
	})
	return out
}
