// Package profile builds the per-source summaries of Section 4.1.2 of the
// paper from the historical window [0, t0]:
//
//   - the three bit-array signatures of Section 4.2.1 — B (all items the
//     source holds at t0), Bcov (its up-to-date and out-of-date items) and
//     Bup (its up-to-date items);
//   - the effectiveness distributions Gi, Gd and Gu — Kaplan–Meier
//     empirical distributions of the delay between a world change and its
//     capture by the source, learned from exact and right-censored delay
//     observations (Figure 7);
//   - the source's update frequency fS = 1/ūS estimated from the observed
//     intervals between content updates, and the last update tick tS0,
//     which anchor the schedule function TS(t) of Eq. 8.
//
// Profiles are built against a world evolution — either the simulator's
// ground truth or a reconstruction from package histint — and are the only
// input the future-quality estimators of package estimate need about a
// source.
package profile

import (
	"errors"
	"fmt"

	"freshsource/internal/bitset"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Profile summarises one source at the end of the training window.
type Profile struct {
	// SourceID identifies the profiled source.
	SourceID source.ID
	// Name is the source's display name.
	Name string
	// T0 is the end of the training window the profile was built on.
	T0 timeline.Tick

	// B, Bcov and Bup are the signatures of Section 4.2.1 over the entity
	// universe (restricted to the profiled domain points).
	B    *bitset.Set
	Bcov *bitset.Set
	Bup  *bitset.Set

	// Gi, Gd and Gu are the capture-effectiveness distributions for
	// insertions, deletions and value updates. A nil distribution means no
	// observation was available; the estimators treat it as
	// zero effectiveness.
	Gi *stats.KaplanMeier
	Gd *stats.KaplanMeier
	Gu *stats.KaplanMeier

	// UpdateInterval is the estimated mean interval ūS between source
	// content updates, in ticks; the update frequency is fS = 1/ūS.
	UpdateInterval float64
	// LastUpdate is tS0, the last tick at or before T0 at which the source
	// updated its content.
	LastUpdate timeline.Tick
	// AcqDivisor m ≥ 1 models acquiring the source's updates at fS/m
	// (Definition 4). Profiles built by a Tracker have divisor 1; use
	// WithDivisor to derive slower-acquisition variants.
	AcqDivisor int

	// CoverageT0 is the source's coverage at T0 over the profiled points,
	// used as the Cov(S, τ) factor of Eq. 10–11.
	CoverageT0 float64

	// InsertDelays are the (exact + right-censored) insertion-delay
	// observations behind Gi, retained for the delay histograms of
	// Figure 7.
	InsertDelays []stats.Duration
}

// Build profiles a source against the world over the training window
// [0, t0], restricted to domain points pts (nil = all). It is a Tracker
// positioned at t0 and built once; a fit over many sources compiles one
// Domain and builds its trackers directly.
func Build(w *world.World, s *source.Source, t0 timeline.Tick, pts []world.DomainPoint) (*Profile, error) {
	tr, err := NewTracker(w, s, t0, NewDomain(pts))
	if err != nil {
		return nil, err
	}
	return tr.Build(), nil
}

// Domain is a compiled domain-point restriction: the points a profile is
// built over (nil = every point) and their membership set. It is read-only
// once built, so one Domain is shared by every Tracker of a fit.
type Domain struct {
	pts []world.DomainPoint
	in  map[world.DomainPoint]bool
}

// NewDomain compiles the restriction to pts (nil = no restriction).
func NewDomain(pts []world.DomainPoint) *Domain {
	d := &Domain{pts: pts}
	if pts != nil {
		d.in = make(map[world.DomainPoint]bool, len(pts))
		for _, pt := range pts {
			d.in[pt] = true
		}
	}
	return d
}

// contains reports whether pt lies inside the restriction.
func (d *Domain) contains(pt world.DomainPoint) bool { return d.pts == nil || d.in[pt] }

// buildSignatures classifies each entity of a source snapshot (its
// entity-state map at T0) against the world. The bitset adds are
// order-independent, so any iteration order of the map gives the same
// signatures.
func (p *Profile) buildSignatures(w *world.World, states map[timeline.EntityID]timeline.EntityState, dom *Domain) {
	n := w.NumEntities()
	p.B, p.Bcov, p.Bup = bitset.New(n), bitset.New(n), bitset.New(n)
	for id, st := range states {
		e := w.Entity(id)
		if !dom.contains(e.Point) {
			continue
		}
		p.B.Add(int(id))
		wv, alive := e.VersionAt(p.T0)
		if !alive {
			continue // non-deleted: in B only
		}
		p.Bcov.Add(int(id))
		if st.Version >= wv {
			p.Bup.Add(int(id))
		}
	}
}

// captures indexes one entity's capture ticks at a source: the first
// Appear/Disappear capture and, per version, the first Update capture.
// "First capture wins" matches replay order, so the index is a pure fold
// over the time-ordered event stream — the sufficient statistic behind the
// Kaplan–Meier effectiveness fits.
type captures struct {
	ins    timeline.Tick
	hasIns bool
	del    timeline.Tick
	hasDel bool
	upd    map[int]timeline.Tick // version → capture tick
}

// observeCapture folds one source event into the capture index. Events must
// arrive in Log order (timeline.Less); it is the single definition of the
// capture semantics.
func observeCapture(caps map[timeline.EntityID]*captures, ev timeline.Event, w *world.World, dom *Domain) {
	if !dom.contains(w.Entity(ev.Entity).Point) {
		return
	}
	c := caps[ev.Entity]
	if c == nil {
		c = &captures{}
		caps[ev.Entity] = c
	}
	switch ev.Kind {
	case timeline.Appear:
		if !c.hasIns {
			c.ins, c.hasIns = ev.At, true
		}
	case timeline.Disappear:
		if !c.hasDel {
			c.del, c.hasDel = ev.At, true
		}
	case timeline.Update:
		if c.upd == nil {
			c.upd = make(map[int]timeline.Tick)
		}
		if _, dup := c.upd[ev.Version]; !dup {
			c.upd[ev.Version] = ev.At
		}
	}
}

// buildEffectiveness extracts the exact and right-censored delay
// observations for insertions, deletions and value updates from the capture
// index, and fits the Kaplan–Meier distributions. When the profile is
// restricted to pts, the per-point entity index keeps the scan proportional
// to the restriction.
func (p *Profile) buildEffectiveness(w *world.World, caps map[timeline.EntityID]*captures, pts []world.DomainPoint) {
	var insObs, delObs, updObs []stats.Duration
	entityIDs := func(fn func(e *world.Entity)) {
		if pts == nil {
			for i := range w.Entities() {
				fn(&w.Entities()[i])
			}
			return
		}
		for _, pt := range pts {
			for _, id := range w.EntitiesOf(pt) {
				fn(w.Entity(id))
			}
		}
	}
	entityIDs(func(e *world.Entity) {
		if e.Born >= p.T0 {
			return
		}
		c := caps[e.ID]
		// Insertion delay: world birth → source insertion.
		if c != nil && c.hasIns {
			insObs = append(insObs, stats.Duration{Value: float64(c.ins - e.Born)})
		} else {
			insObs = append(insObs, stats.Duration{Value: float64(p.T0 - e.Born), Censored: true})
		}
		// Deletion and update delays are conditional on the source
		// mentioning the entity (the Cov(S, τ) factor of Eq. 10 handles
		// the mention probability).
		if c == nil || !c.hasIns {
			return
		}
		if e.Died >= 0 && e.Died <= p.T0 {
			if c.hasDel {
				delObs = append(delObs, stats.Duration{Value: float64(c.del - e.Died)})
			} else {
				delObs = append(delObs, stats.Duration{Value: float64(p.T0 - e.Died), Censored: true})
			}
		}
		for v, u := range e.Updates {
			if u > p.T0 {
				break
			}
			if cap, ok := c.upd[v+1]; ok {
				updObs = append(updObs, stats.Duration{Value: float64(cap - u)})
			} else {
				updObs = append(updObs, stats.Duration{Value: float64(p.T0 - u), Censored: true})
			}
		}
	})
	p.InsertDelays = insObs
	p.Gi = fitKM(insObs)
	p.Gd = fitKM(delObs)
	p.Gu = fitKM(updObs)
}

func fitKM(obs []stats.Duration) *stats.KaplanMeier {
	if len(obs) == 0 {
		return nil
	}
	km, err := stats.NewKaplanMeier(obs)
	if err != nil {
		return nil
	}
	return km
}

// scheduleStats accumulates the distinct content-update timestamps (the set
// MS of Section 4.1.2) as (count, last tick, sum of gaps). Folding gaps
// left-to-right in tick order makes the accumulated float sum identical
// however the stream is split across cuts — the schedule's sufficient
// statistic.
type scheduleStats struct {
	ticks  int
	last   timeline.Tick
	gapSum float64
}

// observe folds one event timestamp; timestamps must arrive in
// nondecreasing order.
func (st *scheduleStats) observe(at timeline.Tick) {
	if st.ticks == 0 {
		st.ticks, st.last = 1, at
		return
	}
	if at != st.last {
		st.ticks++
		st.gapSum += float64(at - st.last)
		st.last = at
	}
}

// applySchedule estimates the source's update interval ūS from the
// accumulated schedule statistics and records the last update tick tS0.
// declared is the source's declared interval, the fallback when fewer than
// two distinct update ticks were observed.
func (p *Profile) applySchedule(st scheduleStats, declared timeline.Tick) {
	if st.ticks == 0 {
		// A source with no observed update: fall back to its declared
		// schedule so TS(t) remains well-defined.
		p.UpdateInterval = float64(declared)
		p.LastUpdate = 0
		return
	}
	p.LastUpdate = st.last
	if st.ticks == 1 {
		p.UpdateInterval = float64(declared)
		return
	}
	p.UpdateInterval = st.gapSum / float64(st.ticks-1)
}

// WithDivisor derives a profile whose updates are acquired every
// m·ūS ticks instead of every ūS — the augmented sources S^m of
// Definition 4. The effectiveness distributions are shared (they describe
// the source, not the acquisition), while the schedule coarsens.
func (p *Profile) WithDivisor(m int) (*Profile, error) {
	if m < 1 {
		return nil, errors.New("profile: divisor must be >= 1")
	}
	if m == 1 {
		return p, nil
	}
	q := *p
	q.AcqDivisor = m
	q.Name = fmt.Sprintf("%s/%d", p.Name, m)
	return &q, nil
}

// acqInterval returns the effective acquisition interval in ticks,
// at least 1.
func (p *Profile) acqInterval() timeline.Tick {
	iv := timeline.Tick(p.UpdateInterval*float64(p.AcqDivisor) + 0.5)
	if iv < 1 {
		iv = 1
	}
	return iv
}

// TS returns the latest acquisition tick at or before t (Eq. 8's TS(t)),
// anchored at the source's last observed update tS0.
func (p *Profile) TS(t timeline.Tick) timeline.Tick {
	iv := p.acqInterval()
	if t <= p.LastUpdate {
		return p.LastUpdate
	}
	k := (t - p.LastUpdate) / iv
	return p.LastUpdate + k*iv
}

// eff evaluates one effectiveness distribution under the schedule
// alignment of Eq. 8: the probability that a change occurring at tc is
// reflected in the acquired content by time t.
func (p *Profile) eff(g *stats.KaplanMeier, t, tc timeline.Tick) float64 {
	if g == nil {
		return 0
	}
	ts := p.TS(t)
	if ts < tc || t < ts {
		return 0
	}
	return g.CDF(float64(ts - tc))
}

// EffIns is Gi(t, tc): the probability an entity appearing at tc is in the
// acquired content by t.
func (p *Profile) EffIns(t, tc timeline.Tick) float64 { return p.eff(p.Gi, t, tc) }

// EffDel is Gd(t, tc) for disappearances, conditional on the source
// mentioning the entity.
func (p *Profile) EffDel(t, tc timeline.Tick) float64 { return p.eff(p.Gd, t, tc) }

// EffUpd is Gu(t, tc) for value changes, conditional on mention.
func (p *Profile) EffUpd(t, tc timeline.Tick) float64 { return p.eff(p.Gu, t, tc) }

// Freq returns the estimated update frequency fS = 1/ūS (per tick).
func (p *Profile) Freq() float64 {
	if p.UpdateInterval <= 0 {
		return 0
	}
	return 1 / p.UpdateInterval
}

// Size returns the number of items the source held at T0.
func (p *Profile) Size() int { return p.B.Count() }
