package profile

import (
	"fmt"

	"freshsource/internal/source"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Tracker maintains one source's profiling sufficient statistics — the
// capture index behind the Kaplan–Meier effectiveness fits, the
// entity-state map behind the signatures, and the schedule accumulator
// behind ūS/tS0 — in one pass over the source's events, so the training cut
// can advance without rescanning the source's history. It is the only way a
// Profile is fitted from a log: Build is a Tracker at t0, built once.
//
// The invariant: after NewTracker(w, s, t0, dom) and any sequence of Extend
// calls ending at cut c, Build() returns a Profile identical (to the byte)
// to a fresh NewTracker(w, s', c, dom).Build() where s' is the source whose
// log is s's archived events plus every streamed delta. This holds because
// all three statistics are pure folds over the time-ordered event stream:
// the capture index is first-capture-wins (order-defined by timeline.Less,
// which Extend's merge preserves), the entity-state map applies
// timeline.ApplyEvent in the same order timeline.Materialize would, and the
// schedule fold accumulates distinct-tick gaps left-to-right. Build then
// enumerates delay observations from that state, so their multisets — and
// their order — match a tracker that read the merged log directly.
//
// A Tracker is not safe for concurrent use; the ingestion layer serializes
// epochs.
type Tracker struct {
	w   *world.World
	src *source.Source
	dom *Domain

	cut    timeline.Tick
	caps   map[timeline.EntityID]*captures
	states map[timeline.EntityID]timeline.EntityState
	sched  scheduleStats
}

// NewTracker builds a tracker positioned at cut t0 over the restriction
// dom, folding the source's archived events in [0, t0].
func NewTracker(w *world.World, s *source.Source, t0 timeline.Tick, dom *Domain) (*Tracker, error) {
	if t0 < 0 || t0 >= w.Horizon() {
		return nil, fmt.Errorf("profile: t0 %d outside world window [0, %d)", t0, w.Horizon())
	}
	tr := &Tracker{
		w:      w,
		src:    s,
		dom:    dom,
		cut:    t0,
		caps:   make(map[timeline.EntityID]*captures),
		states: make(map[timeline.EntityID]timeline.EntityState),
	}
	for _, ev := range s.Log().Events() {
		if ev.At > t0 {
			break
		}
		tr.observe(ev)
	}
	return tr, nil
}

// Cut returns the tracker's current training cut.
func (tr *Tracker) Cut() timeline.Tick { return tr.cut }

// observe folds one event into all three statistics. Events must arrive in
// timeline.Less order across the tracker's whole lifetime.
func (tr *Tracker) observe(ev timeline.Event) {
	tr.sched.observe(ev.At)
	timeline.ApplyEvent(tr.states, ev)
	observeCapture(tr.caps, ev, tr.w, tr.dom)
}

// Extend advances the cut to newCut, folding in the source's own archived
// events in (cut, newCut] merged with delta — the streamed observations
// accepted for this source since the last cut. delta must be sorted by
// timeline.Less with every tick in (cut, newCut]; entity ids must exist in
// the world. The merge preserves global Log order, which is what makes the
// incremental fold exact.
func (tr *Tracker) Extend(newCut timeline.Tick, delta []timeline.Event) error {
	if newCut < tr.cut || (newCut == tr.cut && len(delta) > 0) {
		return fmt.Errorf("profile: tracker cut moved backwards: %d -> %d", tr.cut, newCut)
	}
	if newCut >= tr.w.Horizon() {
		return fmt.Errorf("profile: cut %d outside world window [0, %d)", newCut, tr.w.Horizon())
	}
	n := tr.w.NumEntities()
	for i, ev := range delta {
		if ev.At <= tr.cut || ev.At > newCut {
			return fmt.Errorf("profile: delta tick %d outside (%d, %d]", ev.At, tr.cut, newCut)
		}
		if int(ev.Entity) < 0 || int(ev.Entity) >= n {
			return fmt.Errorf("profile: delta entity %d outside [0, %d)", ev.Entity, n)
		}
		if i > 0 && timeline.Less(ev, delta[i-1]) {
			return fmt.Errorf("profile: delta not sorted at index %d", i)
		}
	}
	arch := tr.src.Log().Between(tr.cut+1, newCut+1)
	i, j := 0, 0
	for i < len(arch) || j < len(delta) {
		if j >= len(delta) || (i < len(arch) && !timeline.Less(delta[j], arch[i])) {
			tr.observe(arch[i])
			i++
		} else {
			tr.observe(delta[j])
			j++
		}
	}
	tr.cut = newCut
	return nil
}

// Build materialises the Profile at the current cut from the maintained
// statistics: signatures, Kaplan–Meier effectiveness fits and schedule.
// It does not mutate the tracker, so it may be called at every cut.
func (tr *Tracker) Build() *Profile {
	p := &Profile{SourceID: tr.src.ID(), Name: tr.src.Name(), T0: tr.cut, AcqDivisor: 1}
	p.buildSignatures(tr.w, tr.states, tr.dom)
	p.buildEffectiveness(tr.w, tr.caps, tr.dom.pts)
	p.applySchedule(tr.sched, tr.src.UpdateInterval())
	alive := tr.w.AliveCount(tr.cut, tr.dom.pts)
	if alive > 0 {
		p.CoverageT0 = float64(p.Bcov.Count()) / float64(alive)
	}
	return p
}
