package estimate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"freshsource/internal/bitset"
	"freshsource/internal/metrics"
	"freshsource/internal/obs"
	"freshsource/internal/profile"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Candidate is one selectable unit: a source profile at a specific
// acquisition divisor (the augmented sources S^m of Definition 4). The
// basic problem uses divisor 1.
type Candidate struct {
	// Profile carries the signatures, effectiveness distributions and
	// acquisition schedule.
	Profile *profile.Profile
	// SourceIndex identifies the underlying source; all frequency variants
	// of one source share it (the rank-1 partition classes of Section 5).
	SourceIndex int
	// covers flags which of the estimator's query points the source
	// observes.
	covers []bool
	// gi, gd and gu tabulate the effectiveness CDFs at integer delays
	// 0 … maxDelay; variants of one source share the tables.
	gi, gd, gu []float64
}

// Name returns the candidate's display name.
func (c *Candidate) Name() string { return c.Profile.Name }

// Divisor returns the candidate's acquisition divisor.
func (c *Candidate) Divisor() int { return c.Profile.AcqDivisor }

// QualityEstimate is the estimated quality vector of an integration result
// at one future tick.
type QualityEstimate struct {
	Coverage        float64
	LocalFreshness  float64
	GlobalFreshness float64
	Accuracy        float64

	// ExpectedOmega is E[|Ω|t] (Eq. 14).
	ExpectedOmega float64
	// ExpectedSize is E[|F(SI)|t] (Eq. 18).
	ExpectedSize float64
	// ExpectedUp is E[Up(F(SI), t)].
	ExpectedUp float64
	// ExpectedCovered is E[OldCov] + E[Ins] (the numerator of Eq. 12).
	ExpectedCovered float64
}

// Estimator estimates integration quality for sets of candidates over a
// query domain at future ticks in (t0, maxT].
type Estimator struct {
	// T0 is the end of the training window.
	T0 timeline.Tick
	// MaxT is the largest future tick the estimator supports.
	MaxT timeline.Tick
	// Literal switches the E[InsUp]/E[ExUp] survival exponents to the
	// paper's printed (t−t0) form; the default uses the occurrence time τ.
	Literal bool
	// NoAlignment disables the TS(t) schedule alignment of Eq. 8 (ablation:
	// pretend every source exposes changes the moment it learns them).
	NoAlignment bool
	// linearOmega switches E[|Ω|t] to the paper-literal constant-λd drift
	// of Eq. 14; toggled via SetLinearOmega, which rebuilds the intensity
	// tables.
	linearOmega bool

	points []world.DomainPoint
	models []*WorldModel
	masks  []*bitset.Set
	cands  []*Candidate

	// Per-model lookup tables over the future window, indexed by dt = t−T0
	// (survival) or τ−T0 (intensities): they keep the hot estimation loop
	// free of math.Exp calls.
	survDel, survUpd       [][]float64
	lamIns, lamDel, lamUpd [][]float64

	// scratch pools the per-call miss-probability buffers so concurrent
	// quality queries (parallel candidate sweeps) stay allocation-light.
	scratch sync.Pool
}

// NewFit builds an estimator for the query domain pts (nil = every point
// of the world): it fits one world model per point (Eq. 6–7) and one
// profile per source (Eq. 8), all on the training window [0, t0]; maxT
// bounds the future ticks that may be queried. Each source's profile comes
// from a fresh profile.Tracker at t0 that is built and dropped inside the
// candidate sweep, so no source's capture or state maps outlive its
// candidate. Both stages run across a bounded worker pool (see
// FitOptions.Workers); results land in pre-sized slots, so the fitted
// Estimator is byte-identical to a sequential build at any worker count. A
// fired context stops launching fits and returns its error once the
// in-flight fits drain.
func NewFit(ctx context.Context, w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint, opt FitOptions) (*Estimator, error) {
	f, err := newFitSpec(w, srcs, t0, maxT, pts, opt)
	if err != nil {
		return nil, err
	}
	defer obs.Start("estimate.fit.seconds").End()
	return f.fit(ctx, t0, func(i int) (*profile.Profile, error) {
		tr, err := profile.NewTracker(w, srcs[i], t0, f.dom)
		if err != nil {
			return nil, err
		}
		return tr.Build(), nil
	})
}

// fitSpec holds the validated inputs shared by NewFit and the streaming
// Accumulator: the world, the sources, the query domain (nil resolved to
// every world point, and compiled once into the Domain every tracker of the
// fit shares read-only), the future bound and the pool size.
type fitSpec struct {
	w       *world.World
	srcs    []*source.Source
	pts     []world.DomainPoint
	dom     *profile.Domain
	maxT    timeline.Tick
	workers int
}

// newFitSpec runs the argument checks every fit shares: at least one
// source, maxT beyond t0, and nil pts meaning every world point.
func newFitSpec(w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint, opt FitOptions) (fitSpec, error) {
	if len(srcs) == 0 {
		return fitSpec{}, errors.New("estimate: no sources")
	}
	if maxT <= t0 {
		return fitSpec{}, fmt.Errorf("estimate: maxT %d must exceed t0 %d", maxT, t0)
	}
	if pts == nil {
		pts = w.Points()
	}
	return fitSpec{w: w, srcs: srcs, pts: pts, dom: profile.NewDomain(pts), maxT: maxT, workers: opt.workers()}, nil
}

// fit is the one estimator pipeline: the per-point world models at t0,
// then one candidate per source from profileOf(i), then the table arena.
// NewFit passes a fresh tracker per source; Accumulator.Build passes its
// maintained trackers.
func (f *fitSpec) fit(ctx context.Context, t0 timeline.Tick, profileOf func(i int) (*profile.Profile, error)) (*Estimator, error) {
	e := &Estimator{T0: t0, MaxT: f.maxT, points: f.pts}
	e.allocModelSlots()
	obs.Gauge("estimate.fit.workers").Set(float64(f.workers))

	// World models per query point are independent; fan them across the
	// pool.
	fitSpan := obs.Start("estimate.fit.models.seconds")
	if err := fitSweep(ctx, f.workers, len(f.pts), func(j int) error {
		m, err := FitWorldPoint(f.w, t0, f.pts[j])
		if err != nil {
			return err
		}
		e.setModel(j, m, f.w)
		return nil
	}); err != nil {
		return nil, err
	}
	fitSpan.EndWithCount(obs.Counter("estimate.fit.points"), int64(len(f.pts)))

	// Profiles are independent; fan them across the same pool. Results
	// land at fixed indices, so the estimator stays deterministic.
	profSpan := obs.Start("estimate.fit.profiles.seconds")
	maxDelay := int(f.maxT - t0 + 1)
	e.cands = make([]*Candidate, len(f.srcs))
	if err := fitSweep(ctx, f.workers, len(f.srcs), func(i int) error {
		prof, err := profileOf(i)
		if err != nil {
			return err
		}
		e.cands[i] = candidateFromProfile(prof, f.srcs[i], i, f.pts, maxDelay)
		return nil
	}); err != nil {
		return nil, err
	}
	profSpan.EndWithCount(obs.Counter("estimate.fit.profiles"), int64(len(f.srcs)))
	e.compactTables()
	return e, nil
}

// compactTables repacks every candidate's tabulated effectiveness tables
// and coverage flags into two contiguous arenas (one []float64, one []bool)
// ordered by candidate index. Per-candidate fit allocates each table
// separately, scattering 15k×3 small slices across the heap; the arena puts
// the data the selection probe walks in candidate order into sequential
// memory and drops the allocation count to two. Each candidate's slices are
// re-sliced full-capacity views into the arena, so pointer identity of
// &c.gi[0] etc. is stable afterwards — WithFrequencyVariants copies these
// slice headers, which is why the repack must run before variants are
// derived (both fit and cache-load paths do; the aliasing is pinned by
// TestFrequencyVariantsShareTables).
func (e *Estimator) compactTables() {
	var nf, nb int
	for _, c := range e.cands {
		nf += len(c.gi) + len(c.gd) + len(c.gu)
		nb += len(c.covers)
	}
	if nf == 0 && nb == 0 {
		return
	}
	fa := make([]float64, 0, nf)
	ba := make([]bool, 0, nb)
	takeF := func(s []float64) []float64 {
		off := len(fa)
		fa = append(fa, s...)
		return fa[off:len(fa):len(fa)]
	}
	for _, c := range e.cands {
		c.gi = takeF(c.gi)
		c.gd = takeF(c.gd)
		c.gu = takeF(c.gu)
		off := len(ba)
		ba = append(ba, c.covers...)
		c.covers = ba[off:len(ba):len(ba)]
	}
}

// allocModelSlots pre-sizes the per-point model, mask and lookup-table
// slots for e.points.
func (e *Estimator) allocModelSlots() {
	n := len(e.points)
	e.models = make([]*WorldModel, n)
	e.masks = make([]*bitset.Set, n)
	e.survDel = make([][]float64, n)
	e.survUpd = make([][]float64, n)
	e.lamIns = make([][]float64, n)
	e.lamDel = make([][]float64, n)
	e.lamUpd = make([][]float64, n)
}

// setModel installs a fitted world model at slot j: the per-point entity
// mask plus the survival/intensity lookup tables over the future window.
// It is the single table-building path shared by the fit pipeline and the
// model-cache load (FromFitted), so a cache-loaded estimator's tables are
// byte-identical to a freshly fitted one's.
func (e *Estimator) setModel(j int, m *WorldModel, w *world.World) {
	e.models[j] = m
	mask := bitset.New(w.NumEntities())
	for _, id := range w.EntitiesOf(m.Point) {
		mask.Add(int(id))
	}
	e.masks[j] = mask

	span := int(e.MaxT-e.T0) + 1
	sd := make([]float64, span)
	su := make([]float64, span)
	li := make([]float64, span)
	ld := make([]float64, span)
	lu := make([]float64, span)
	for dt := 0; dt < span; dt++ {
		sd[dt] = m.SurvivalDel(timeline.Tick(dt))
		su[dt] = m.SurvivalUpd(timeline.Tick(dt))
		li[dt] = m.LambdaInsAt(e.T0 + timeline.Tick(dt))
		ld[dt] = m.LambdaDelAt(e.T0 + timeline.Tick(dt))
		lu[dt] = m.LambdaUpdAt(e.T0 + timeline.Tick(dt))
	}
	e.survDel[j] = sd
	e.survUpd[j] = su
	e.lamIns[j] = li
	e.lamDel[j] = ld
	e.lamUpd[j] = lu
}

// candidateFromProfile wraps a fitted profile into a Candidate: coverage
// flags from the source spec plus the tabulated effectiveness tables.
func candidateFromProfile(prof *profile.Profile, s *source.Source, i int, pts []world.DomainPoint, maxDelay int) *Candidate {
	covered := make(map[world.DomainPoint]bool, len(s.Spec().Points))
	for _, p := range s.Spec().Points {
		covered[p] = true
	}
	c := &Candidate{Profile: prof, SourceIndex: i, covers: make([]bool, len(pts))}
	for j, p := range pts {
		c.covers[j] = covered[p]
	}
	c.gi = tabulate(prof.Gi, maxDelay)
	c.gd = tabulate(prof.Gd, maxDelay)
	c.gu = tabulate(prof.Gu, maxDelay)
	return c
}

// tabulate samples a Kaplan–Meier CDF at integer delays 0 … maxDelay with
// a single merge walk over the step points (O(maxDelay + steps) instead of
// a binary search per delay); the values are exactly CDF(d). A nil
// distribution (no observations) tabulates to zero effectiveness.
func tabulate(km *stats.KaplanMeier, maxDelay int) []float64 {
	out := make([]float64, maxDelay+1)
	if km == nil {
		return out
	}
	times, cdf := km.Steps()
	k := 0
	cur := 0.0
	for d := 0; d <= maxDelay; d++ {
		for k < len(times) && times[k] <= float64(d) {
			cur = cdf[k]
			k++
		}
		out[d] = cur
	}
	return out
}

// SetLinearOmega switches between the ODE-consistent world-size model
// (default) and the paper-literal constant-λd drift of Eq. 14, rebuilding
// the intensity tables accordingly. Part of the ablation study.
func (e *Estimator) SetLinearOmega(on bool) {
	if e.linearOmega == on {
		return
	}
	e.linearOmega = on
	span := int(e.MaxT-e.T0) + 1
	for j, m := range e.models {
		for dt := 0; dt < span; dt++ {
			if on {
				e.lamDel[j][dt] = m.LambdaDel
				e.lamUpd[j][dt] = m.LambdaUpd
			} else {
				e.lamDel[j][dt] = m.LambdaDelAt(e.T0 + timeline.Tick(dt))
				e.lamUpd[j][dt] = m.LambdaUpdAt(e.T0 + timeline.Tick(dt))
			}
		}
	}
}

// WithFrequencyVariants returns an estimator whose candidates are e's
// followed, for every base candidate (divisor 1), by variants acquired at
// each of the given divisors. e is left as it was, so one fit can back any
// number of divisor lists: the result shares e's world models, masks,
// lookup tables and candidates and owns only its candidate slice, so its
// appends never write into the array e's readers walk. SetLinearOmega
// rewrites the shared intensity tables, so on either estimator it changes
// what both read.
//
// Variants alias their base's tabulated effectiveness tables, coverage
// flags and signature bitsets rather than recomputing them — the tables
// describe the underlying source, not the acquisition schedule, so the
// O(variants × maxDelay) re-tabulation would be pure waste (and the
// persistent model cache leans on the same invariant: it stores only
// divisor-1 candidates and re-derives variants on load). The sharing is
// pinned by TestFrequencyVariantsShareTables.
func (e *Estimator) WithFrequencyVariants(divisors []int) (*Estimator, error) {
	base := len(e.cands)
	v := &Estimator{
		T0: e.T0, MaxT: e.MaxT, Literal: e.Literal, NoAlignment: e.NoAlignment, linearOmega: e.linearOmega,
		points: e.points, models: e.models, masks: e.masks,
		survDel: e.survDel, survUpd: e.survUpd,
		lamIns: e.lamIns, lamDel: e.lamDel, lamUpd: e.lamUpd,
		cands: slices.Grow(e.cands[:base:base], base*len(divisors)),
	}
	for i := 0; i < base; i++ {
		c := e.cands[i]
		if c.Divisor() != 1 {
			continue
		}
		for _, m := range divisors {
			if m <= 1 {
				continue
			}
			prof, err := c.Profile.WithDivisor(m)
			if err != nil {
				return nil, err
			}
			v.cands = append(v.cands, &Candidate{
				Profile:     prof,
				SourceIndex: c.SourceIndex,
				covers:      c.covers,
				gi:          c.gi,
				gd:          c.gd,
				gu:          c.gu,
			})
		}
	}
	obs.Counter("estimate.variants.added").Add(int64(len(v.cands) - base))
	// Three effectiveness tables shared (not re-tabulated) per variant.
	obs.Counter("estimate.variants.tables_shared").Add(int64(3 * (len(v.cands) - base)))
	return v, nil
}

// NumCandidates returns the number of selectable candidates.
func (e *Estimator) NumCandidates() int { return len(e.cands) }

// Candidate returns the i-th candidate.
func (e *Estimator) Candidate(i int) *Candidate { return e.cands[i] }

// QualityMulti estimates quality at several future ticks, computing the
// signature unions once. Ticks must lie in [T0, MaxT].
//
// It is safe for concurrent use: parallel candidate sweeps may probe the
// estimator from many goroutines at once.
func (e *Estimator) QualityMulti(set []int, ts []timeline.Tick) []QualityEstimate {
	sp := obs.Start("estimate.quality.seconds")
	e.checkTicks(ts)
	st := e.NewSetState(set)

	scratch := e.getScratch()
	out := make([]QualityEstimate, len(ts))
	for k, t := range ts {
		out[k] = e.qualityAt(t, st.covT0, st.upT0, st.sizeT0, st.covering, nil, nil, scratch)
	}

	// Telemetry, batched: one set of counter adds per estimate call, so
	// the per-iteration recurrence loops above stay uninstrumented.
	sp.End()
	if obs.Enabled() {
		obs.Counter("estimate.quality.calls").Add(1)
		obs.Counter("estimate.quality.ticks").Add(int64(len(ts)))
		obs.Counter("estimate.quality.set_size").Add(int64(len(set)))
		obs.Counter("estimate.recurrence.steps").Add(scratch.steps)
		obs.Counter("estimate.recurrence.cand_terms").Add(scratch.candTerms)
	}
	e.putScratch(scratch)
	return out
}

func (e *Estimator) checkTicks(ts []timeline.Tick) {
	for _, t := range ts {
		if t < e.T0 || t > e.MaxT {
			panic(fmt.Sprintf("estimate: tick %d outside [%d, %d]", t, e.T0, e.MaxT))
		}
	}
}

type missBuffers struct {
	ins, del, upd []float64
	// cnt backs the adjusted per-point t0 count triple of the incremental
	// add path (3·|points| ints), so a probe borrows it from the pool
	// instead of allocating.
	cnt []int
	// steps counts Eq. 12–19 recurrence iterations and candTerms the
	// per-covering-candidate effectiveness terms, accumulated across
	// qualityAt calls and flushed to obs counters by QualityMulti.
	steps, candTerms int64
}

// getScratch takes a zeroed miss-buffer set from the pool.
func (e *Estimator) getScratch() *missBuffers {
	if v := e.scratch.Get(); v != nil {
		b := v.(*missBuffers)
		b.steps, b.candTerms = 0, 0
		return b
	}
	span := int(e.MaxT - e.T0)
	return &missBuffers{
		ins: make([]float64, span),
		del: make([]float64, span),
		upd: make([]float64, span),
		cnt: make([]int, 3*len(e.points)),
	}
}

func (e *Estimator) putScratch(b *missBuffers) { e.scratch.Put(b) }

// candidateMiss folds one covering candidate's effectiveness into the miss
// probabilities over occurrence indices 0 … dt0−1 (Eq. 9–11), returning the
// number of per-candidate terms applied. Keeping this in one place
// guarantees the incremental add path multiplies bit-identically to the
// from-scratch path.
func (e *Estimator) candidateMiss(c *Candidate, t timeline.Tick, dt0 int, missIns, missDel, missUpd []float64) int64 {
	ts := c.Profile.TS(t)
	if e.NoAlignment {
		ts = t
	}
	// eff(τ) = tab[ts−τ] for τ ≤ ts; zero beyond.
	iMax := int(ts - e.T0 - 1) // largest i with τ = T0+1+i ≤ ts
	if iMax >= dt0 {
		iMax = dt0 - 1
	}
	cv := c.Profile.CoverageT0
	for i := 0; i <= iMax; i++ {
		d := int(ts-e.T0) - 1 - i
		missIns[i] *= 1 - c.gi[d]
		missDel[i] *= 1 - cv*c.gd[d]
		missUpd[i] *= 1 - cv*c.gu[d]
	}
	return int64(iMax + 1)
}

// qualityAt evaluates Equations 12–19 at one tick. covering[j] lists the
// set's candidates that observe point j. base, when non-nil, supplies the
// covering lists' pre-folded miss products for this tick, read in place;
// without it the products are folded from scratch into scratch's buffers,
// the same float sequence buildMiss caches. extra, when non-nil, is one
// more candidate layered on top (the incremental add path, which always
// passes base) whose effectiveness terms apply on the fly after
// covering[j]'s — the same order, and op for op the same float sequence,
// as a from-scratch evaluation of the set with extra appended last. Both
// paths then run one recurrence.
func (e *Estimator) qualityAt(t timeline.Tick, covT0, upT0, sizeT0 []int, covering [][]*Candidate, base *tickMiss, extra *Candidate, scratch *missBuffers) QualityEstimate {
	var omega, covered, up, size float64
	dt0 := int(t - e.T0)

	// The extra candidate's alignment is per-tick, not per-point: hoist it
	// (mirrors candidateMiss — eff(τ) = tab[ts−τ] for τ ≤ ts, zero beyond).
	var xgi, xgd, xgu []float64
	var xcv float64
	xiMax, xd0 := -1, 0
	if extra != nil {
		ts := extra.Profile.TS(t)
		if e.NoAlignment {
			ts = t
		}
		xiMax = int(ts - e.T0 - 1) // largest i with τ = T0+1+i ≤ ts
		if xiMax >= dt0 {
			xiMax = dt0 - 1
		}
		xd0 = int(ts - e.T0)
		xgi, xgd, xgu = extra.gi, extra.gd, extra.gu
		xcv = extra.Profile.CoverageT0
	}

	for j := range e.points {
		m := e.models[j]
		if e.linearOmega {
			omega += m.ExpectedOmegaLinear(t)
		} else {
			omega += m.ExpectedOmega(t)
		}
		survDel, survUpd := e.survDel[j], e.survUpd[j]
		lamIns, lamDel, lamUpd := e.lamIns[j], e.lamDel[j], e.lamUpd[j]

		// Eq. 13: surviving covered content from t0, and E[OldUp]:
		// survived and unchanged.
		oldCov := float64(covT0[j]) * survDel[dt0]
		oldUp := float64(upT0[j]) * survDel[dt0] * survUpd[dt0]

		// The miss products of Eq. 9–11 over occurrence indices 0 … dt0−1:
		// the cached base's, read in place, or folded from scratch into the
		// scratch buffers, one pass per covering candidate. Re-sliced to dt0
		// so the loops below index them without bounds checks.
		var bIns, bDel, bUpd []float64
		if base != nil {
			bIns, bDel, bUpd = base.ins[j], base.del[j], base.upd[j]
		} else {
			bIns, bDel, bUpd = scratch.ins[:dt0], scratch.del[:dt0], scratch.upd[:dt0]
			for i := range bIns {
				bIns[i], bDel[i], bUpd[i] = 1, 1, 1
			}
			for _, c := range covering[j] {
				scratch.candTerms += e.candidateMiss(c, t, dt0, bIns, bDel, bUpd)
			}
		}
		bIns, bDel, bUpd = bIns[:dt0], bDel[:dt0], bUpd[:dt0]

		// Eq. 15, Eq. 19, and the E[InsUp]/E[ExUp] sums, with the
		// time-varying λi(τ) (seasonal subdomains), λd(τ), λu(τ). extra's
		// terms multiply in per element — no copy, no store. The loop
		// splits at the last index they reach (foldEnd) so each half stays
		// branch-free.
		var ins, del, insUp, exUp float64
		foldEnd := -1
		if extra != nil && extra.covers[j] {
			scratch.candTerms += int64(xiMax + 1)
			if foldEnd = xiMax; foldEnd < -1 {
				foldEnd = -1
			}
		}
		for i := 0; i <= foldEnd; i++ {
			d := xd0 - 1 - i
			mi := bIns[i] * (1 - xgi[d])
			md := bDel[i] * (1 - xcv*xgd[d])
			mu := bUpd[i] * (1 - xcv*xgu[d])
			dtau := dt0 - 1 - i // t − τ
			sd, su := survDel[dtau], survUpd[dtau]
			if e.Literal {
				sd, su = survDel[dt0], survUpd[dt0]
			}
			prIns := 1 - mi
			ins += lamIns[i+1] * survDel[dtau] * prIns
			del += lamDel[i+1] * (1 - md)
			insUp += lamIns[i+1] * sd * su * prIns
			exUp += lamUpd[i+1] * sd * su * (1 - mu)
		}
		for i := foldEnd + 1; i < dt0; i++ {
			dtau := dt0 - 1 - i
			sd, su := survDel[dtau], survUpd[dtau]
			if e.Literal {
				sd, su = survDel[dt0], survUpd[dt0]
			}
			prIns := 1 - bIns[i]
			ins += lamIns[i+1] * survDel[dtau] * prIns
			del += lamDel[i+1] * (1 - bDel[i])
			insUp += lamIns[i+1] * sd * su * prIns
			exUp += lamUpd[i+1] * sd * su * (1 - bUpd[i])
		}
		scratch.steps += int64(dt0)

		covered += oldCov + ins
		up += oldUp + insUp + exUp
		sz := float64(sizeT0[j]) + ins - del
		if sz < 0 {
			sz = 0
		}
		size += sz
	}

	q := QualityEstimate{ExpectedOmega: omega, ExpectedSize: size, ExpectedUp: up, ExpectedCovered: covered}
	if omega > 0 {
		q.Coverage = clamp01(covered / omega)
		q.GlobalFreshness = clamp01(up / omega)
	}
	if size > 0 {
		q.LocalFreshness = clamp01(up / size)
	}
	q.Accuracy = metrics.AccuracyFromComponents(q.Coverage, q.LocalFreshness, q.GlobalFreshness)
	return q
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
