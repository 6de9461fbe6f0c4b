package estimate

import (
	"slices"
	"sync/atomic"

	"freshsource/internal/bitset"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// SetState caches everything a quality estimate derives from a candidate
// set alone — the union signatures B, Bcov and Bup, the per-point t0
// content counts, and the covering-candidate lists — so that evaluating
// single-candidate additions (the probe of every greedy-style sweep) skips
// re-unioning the whole set.
//
// Invariants:
//
//   - A SetState is immutable after construction and safe to share across
//     goroutines; parallel sweeps probe one state concurrently.
//   - QualityMultiAdd(st, x, ts) requires x ∉ st's set; it layers x's
//     contribution on top of the cached unions, which double-applies x's
//     effectiveness terms if x is already a member.
//   - The state belongs to the Estimator that built it and goes stale if
//     SetLinearOmega toggles (t0 counts stay valid, but cached results
//     should be re-derived for apples-to-apples comparisons).
type SetState struct {
	e   *Estimator
	set []int

	// uB, uCov and uUp are the set's union signatures; all nil for the
	// empty set.
	uB, uCov, uUp *bitset.Set

	// covT0, upT0 and sizeT0 are |union ∩ mask_j| per query point j for the
	// Bcov, Bup and B unions.
	covT0, upT0, sizeT0 []int

	// covering[j] lists the set's candidates observing point j, in set
	// order — the multiplication order of the miss-probability products.
	covering [][]*Candidate

	// miss caches the base set's miss-probability products per tick, built
	// lazily on first probe of each tick and indexed by dt = t−T0 (a flat
	// slice, not a map: the steady-state probe does one atomic load per
	// tick, no lock and no hashing). A probe then reads the arrays in place
	// and applies only the added candidate's terms instead of refolding
	// every covering candidate — the O(|set|·span) → O(span) step.
	miss []atomic.Pointer[tickMiss]
}

// tickMiss holds, for one tick, the per-point miss-probability products of
// the base covering lists over occurrence indices 0 … dt0−1. The per-point
// slices share one contiguous backing buffer (one allocation per tick,
// sequential reads in the recurrence).
type tickMiss struct {
	ins, del, upd [][]float64
}

// missAt returns the cached base miss products for tick t, building them on
// first use. Concurrent builders may race benignly; the first stored value
// wins and all candidates compute identical arrays.
func (st *SetState) missAt(t timeline.Tick) *tickMiss {
	slot := &st.miss[int(t-st.e.T0)]
	if m := slot.Load(); m != nil {
		return m
	}
	m := st.e.buildMiss(st.covering, t)
	if !slot.CompareAndSwap(nil, m) {
		m = slot.Load()
	}
	return m
}

// buildMiss folds the covering lists' effectiveness terms at one tick, in
// covering order — exactly the prefix of the products qualityAt computes
// from scratch.
func (e *Estimator) buildMiss(covering [][]*Candidate, t timeline.Tick) *tickMiss {
	dt0 := int(t - e.T0)
	nPts := len(e.points)
	m := &tickMiss{
		ins: make([][]float64, nPts),
		del: make([][]float64, nPts),
		upd: make([][]float64, nPts),
	}
	buf := make([]float64, 3*nPts*dt0)
	for i := range buf {
		buf[i] = 1
	}
	take := func() []float64 {
		s := buf[:dt0:dt0]
		buf = buf[dt0:]
		return s
	}
	for j := range e.points {
		ins, del, upd := take(), take(), take()
		for _, c := range covering[j] {
			e.candidateMiss(c, t, dt0, ins, del, upd)
		}
		m.ins[j], m.del[j], m.upd[j] = ins, del, upd
	}
	return m
}

// Set returns the candidate set the state was built from (not a copy; do
// not mutate).
func (st *SetState) Set() []int { return st.set }

// NewSetState builds the cached state of a candidate set. The work is the
// same as the set-dependent prefix of QualityMulti: one signature union
// pass plus 3·|points| intersect counts.
func (e *Estimator) NewSetState(set []int) *SetState {
	st := &SetState{
		e:    e,
		set:  append([]int(nil), set...),
		miss: make([]atomic.Pointer[tickMiss], int(e.MaxT-e.T0)+1),
	}

	// Union signatures over the set (deduplicating shared signatures is
	// unnecessary: union is idempotent).
	for _, i := range set {
		p := e.cands[i].Profile
		if st.uB == nil {
			st.uB, st.uCov, st.uUp = p.B.Clone(), p.Bcov.Clone(), p.Bup.Clone()
			continue
		}
		st.uB.UnionWith(p.B)
		st.uCov.UnionWith(p.Bcov)
		st.uUp.UnionWith(p.Bup)
	}

	// Per-point t0 content counts and covering-candidate lists, computed
	// once per set.
	nPts := len(e.points)
	counts := make([]int, 3*nPts)
	st.covT0, st.upT0, st.sizeT0 = counts[:nPts:nPts], counts[nPts:2*nPts:2*nPts], counts[2*nPts:]
	st.covering = make([][]*Candidate, nPts)
	if st.uB != nil {
		for j := range e.points {
			st.covT0[j] = bitset.IntersectCount(st.uCov, e.masks[j])
			st.upT0[j] = bitset.IntersectCount(st.uUp, e.masks[j])
			st.sizeT0[j] = bitset.IntersectCount(st.uB, e.masks[j])
		}
	}
	for j := range e.points {
		for _, i := range set {
			if e.cands[i].covers[j] {
				st.covering[j] = append(st.covering[j], e.cands[i])
			}
		}
	}

	if obs.Enabled() {
		obs.Counter("estimate.setstate.builds").Add(1)
		if n := len(set); n > 1 {
			obs.Counter("estimate.signature.unions").Add(int64(3 * (n - 1)))
		}
		if st.uB != nil {
			obs.Counter("estimate.signature.intersects").Add(int64(3 * nPts))
		}
	}
	return st
}

// QualityMultiState estimates the quality of st's own set at the given
// ticks from the cached state: the t0 counts and covering lists are reused
// and each tick's miss products come from the state's lazily-built cache,
// so re-evaluating one set across repeated or overlapping Tf vectors skips
// the per-candidate effectiveness folds after their first use. The result
// is bit-identical to QualityMulti(st.Set(), ts) — the cached products are
// the same floats folded in the same covering order. This is the warm path
// of a serving registry keeping SetStates keyed by (set, Tf).
func (e *Estimator) QualityMultiState(st *SetState, ts []timeline.Tick) []QualityEstimate {
	sp := obs.Start("estimate.quality_state.seconds")
	e.checkTicks(ts)

	scratch := e.getScratch()
	out := make([]QualityEstimate, len(ts))
	for k, t := range ts {
		out[k] = e.qualityAt(t, st.covT0, st.upT0, st.sizeT0, st.covering, st.missAt(t), nil, scratch)
	}

	sp.End()
	if obs.Enabled() {
		obs.Counter("estimate.quality.state_calls").Add(1)
		obs.Counter("estimate.quality.ticks").Add(int64(len(ts)))
		obs.Counter("estimate.recurrence.steps").Add(scratch.steps)
		obs.Counter("estimate.recurrence.cand_terms").Add(scratch.candTerms)
	}
	e.putScratch(scratch)
	return out
}

// Inert reports whether candidate x can never change an estimate: it holds
// nothing at t0 (empty signatures, zero coverage) and every effectiveness
// term it would fold in is zero, so each of its miss factors is exactly 1.
// QualityMultiAdd(st, x, ts) then equals QualityMultiState(st, ts) bit for
// bit for every state: the same floats in the same order.
func (e *Estimator) Inert(x int) bool {
	c := e.cands[x]
	p := c.Profile
	if p.CoverageT0 != 0 || p.B.Any() || p.Bcov.Any() || p.Bup.Any() {
		return false
	}
	if !slices.Contains(c.covers, true) {
		return true
	}
	for _, g := range c.gi {
		if g != 0 {
			return false
		}
	}
	return true
}

// QualityMultiAdd estimates the quality of st's set ∪ {x} at the given
// ticks without rebuilding the set's unions: candidate x's t0 contribution
// per query point is a fused triple-popcount count(x ∧ mask ∧ ¬union) over
// the cached union signatures, and its effectiveness terms layer after the
// cached covering lists'. The result is bit-identical to
// QualityMulti(append(set, x), ts).
//
// x must not already be a member of st's set (see the SetState
// invariants). Safe for concurrent calls sharing one state.
func (e *Estimator) QualityMultiAdd(st *SetState, x int, ts []timeline.Tick) []QualityEstimate {
	return e.QualityMultiAddInto(st, x, ts, nil)
}

// QualityMultiAddInto is QualityMultiAdd writing into out when it has
// capacity for len(ts) estimates (allocating otherwise) — the zero-alloc
// probe entry point: with a warmed state (every tick's miss products built)
// and a reusable out buffer, the steady-state probe performs no heap
// allocation at all. It returns the filled slice.
func (e *Estimator) QualityMultiAddInto(st *SetState, x int, ts []timeline.Tick, out []QualityEstimate) []QualityEstimate {
	sp := obs.Start("estimate.quality_add.seconds")
	e.checkTicks(ts)
	xc := e.cands[x]
	xp := xc.Profile

	scratch := e.getScratch()

	// Adjusted t0 counts: cached count + what x adds beyond the union. The
	// count buffers live in the pooled scratch, not a per-probe allocation.
	nPts := len(e.points)
	counts := scratch.cnt
	covT0, upT0, sizeT0 := counts[:nPts:nPts], counts[nPts:2*nPts:2*nPts], counts[2*nPts:3*nPts]
	for j := range e.points {
		if st.uB == nil {
			covT0[j] = bitset.IntersectCount(xp.Bcov, e.masks[j])
			upT0[j] = bitset.IntersectCount(xp.Bup, e.masks[j])
			sizeT0[j] = bitset.IntersectCount(xp.B, e.masks[j])
		} else {
			covT0[j] = st.covT0[j] + bitset.IntersectAndNotCount(xp.Bcov, e.masks[j], st.uCov)
			upT0[j] = st.upT0[j] + bitset.IntersectAndNotCount(xp.Bup, e.masks[j], st.uUp)
			sizeT0[j] = st.sizeT0[j] + bitset.IntersectAndNotCount(xp.B, e.masks[j], st.uB)
		}
	}

	if cap(out) >= len(ts) {
		out = out[:len(ts)]
	} else {
		out = make([]QualityEstimate, len(ts))
	}
	for k, t := range ts {
		out[k] = e.qualityAt(t, covT0, upT0, sizeT0, st.covering, st.missAt(t), xc, scratch)
	}

	sp.End()
	if obs.Enabled() {
		obs.Counter("estimate.quality.add_calls").Add(1)
		obs.Counter("estimate.quality.ticks").Add(int64(len(ts)))
		obs.Counter("estimate.signature.kernel_counts").Add(int64(3 * nPts))
		obs.Counter("estimate.recurrence.steps").Add(scratch.steps)
		obs.Counter("estimate.recurrence.cand_terms").Add(scratch.candTerms)
	}
	e.putScratch(scratch)
	return out
}
