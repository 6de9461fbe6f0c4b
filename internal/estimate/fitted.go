package estimate

import (
	"fmt"

	"freshsource/internal/bitset"
	"freshsource/internal/profile"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Fitted is the plain-data snapshot of a fitted Estimator that the
// persistent model cache (internal/modelcache) persists and reloads: the
// per-subdomain world models and the per-source profiles — Kaplan–Meier
// steps, signature bit arrays, schedule scalars and delay observations.
//
// Only the expensively fitted state is captured. Everything derived from
// it deterministically — entity masks, survival/intensity lookup tables,
// tabulated effectiveness CDFs, frequency variants, the cost model — is
// rebuilt on load by FromFitted (and core.FromEstimator), which keeps
// cache files small and guarantees a loaded estimator is byte-identical
// to a fresh fit: both paths run the same derivation code on the same
// float64 inputs.
type Fitted struct {
	T0, MaxT timeline.Tick
	Points   []world.DomainPoint
	// Models[j] is the world model of Points[j].
	Models []FittedModel
	// Candidates hold only divisor-1 base candidates, in source order;
	// frequency variants are derived on load (WithFrequencyVariants), never
	// persisted — they share the base's tables by construction.
	Candidates []FittedCandidate
	// Universe is the entity-universe size of the signature bitsets.
	Universe int
}

// FittedModel is the persisted form of a WorldModel (Point and T0 live on
// the enclosing Fitted).
type FittedModel struct {
	LambdaIns, LambdaDel, LambdaUpd float64
	GammaDel, GammaUpd              float64
	OmegaT0                         int
	Periodic                        *stats.PeriodicPoissonModel
}

// FittedKM is the persisted form of a Kaplan–Meier distribution: its step
// points plus the observation count. A nil *FittedKM persists a nil
// distribution (no observations).
type FittedKM struct {
	Times, CDF []float64
	N          int
}

// FittedCandidate is the persisted form of one base candidate's profile.
type FittedCandidate struct {
	SourceID       source.ID
	Name           string
	UpdateInterval float64
	LastUpdate     timeline.Tick
	CoverageT0     float64
	// B, Bcov and Bup are the signature bit arrays as backing words over
	// the Fitted's Universe.
	B, Bcov, Bup []uint64
	Gi, Gd, Gu   *FittedKM
	InsertDelays []stats.Duration
	// Covers[j] flags whether the source observes Points[j].
	Covers []bool
}

// Export snapshots the estimator's fitted state for persistence. It must
// be called on a base fit, not on one WithFrequencyVariants returned,
// because the cache re-derives variants on load; an estimator with derived
// candidates is rejected.
func (e *Estimator) Export() (*Fitted, error) {
	f := &Fitted{
		T0:     e.T0,
		MaxT:   e.MaxT,
		Points: append([]world.DomainPoint(nil), e.points...),
	}
	for _, m := range e.models {
		fm := FittedModel{
			LambdaIns: m.LambdaIns, LambdaDel: m.LambdaDel, LambdaUpd: m.LambdaUpd,
			GammaDel: m.GammaDel, GammaUpd: m.GammaUpd, OmegaT0: m.OmegaT0,
		}
		if m.PeriodicIns != nil {
			cp := *m.PeriodicIns
			cp.Rates = append([]float64(nil), m.PeriodicIns.Rates...)
			fm.Periodic = &cp
		}
		f.Models = append(f.Models, fm)
	}
	for i, c := range e.cands {
		if c.Divisor() != 1 || c.SourceIndex != i {
			return nil, fmt.Errorf("estimate: export after derived candidates were added (candidate %d: divisor %d, source %d)", i, c.Divisor(), c.SourceIndex)
		}
		p := c.Profile
		if f.Universe == 0 {
			f.Universe = p.B.Len()
		}
		fc := FittedCandidate{
			SourceID:       p.SourceID,
			Name:           p.Name,
			UpdateInterval: p.UpdateInterval,
			LastUpdate:     p.LastUpdate,
			CoverageT0:     p.CoverageT0,
			B:              p.B.Words(),
			Bcov:           p.Bcov.Words(),
			Bup:            p.Bup.Words(),
			Gi:             exportKM(p.Gi),
			Gd:             exportKM(p.Gd),
			Gu:             exportKM(p.Gu),
			InsertDelays:   append([]stats.Duration(nil), p.InsertDelays...),
			Covers:         append([]bool(nil), c.covers...),
		}
		f.Candidates = append(f.Candidates, fc)
	}
	return f, nil
}

func exportKM(km *stats.KaplanMeier) *FittedKM {
	if km == nil {
		return nil
	}
	times, cdf := km.Steps()
	return &FittedKM{Times: times, CDF: cdf, N: km.N()}
}

func importKM(f *FittedKM) (*stats.KaplanMeier, error) {
	if f == nil {
		return nil, nil
	}
	return stats.KaplanMeierFromSteps(f.Times, f.CDF, f.N)
}

// FromFitted reconstructs an estimator from a persisted base fit against
// the world it was fitted on: masks, lookup tables and effectiveness
// tables are re-derived through the same code paths as a fresh fit, so
// the result is byte-identical to the estimator Export was called on.
// FromFitted performs no statistical fitting — no world scans, no MLE, no
// Kaplan–Meier construction — which is what makes a model-cache hit fast.
func FromFitted(w *world.World, f *Fitted) (*Estimator, error) {
	if f == nil {
		return nil, fmt.Errorf("estimate: nil fitted snapshot")
	}
	if f.MaxT <= f.T0 {
		return nil, fmt.Errorf("estimate: fitted maxT %d must exceed t0 %d", f.MaxT, f.T0)
	}
	if len(f.Models) != len(f.Points) {
		return nil, fmt.Errorf("estimate: %d models for %d points", len(f.Models), len(f.Points))
	}
	if len(f.Candidates) == 0 {
		return nil, fmt.Errorf("estimate: fitted snapshot has no candidates")
	}
	if f.Universe != w.NumEntities() {
		return nil, fmt.Errorf("estimate: fitted universe %d does not match world's %d entities", f.Universe, w.NumEntities())
	}
	e := &Estimator{T0: f.T0, MaxT: f.MaxT, points: append([]world.DomainPoint(nil), f.Points...)}
	e.allocModelSlots()
	for j := range f.Points {
		fm := f.Models[j]
		m := &WorldModel{
			Point: f.Points[j], T0: f.T0,
			LambdaIns: fm.LambdaIns, LambdaDel: fm.LambdaDel, LambdaUpd: fm.LambdaUpd,
			GammaDel: fm.GammaDel, GammaUpd: fm.GammaUpd, OmegaT0: fm.OmegaT0,
		}
		if fm.Periodic != nil {
			cp := *fm.Periodic
			cp.Rates = append([]float64(nil), fm.Periodic.Rates...)
			m.PeriodicIns = &cp
		}
		e.setModel(j, m, w)
	}

	maxDelay := int(f.MaxT - f.T0 + 1)
	e.cands = make([]*Candidate, len(f.Candidates))
	for i := range f.Candidates {
		fc := &f.Candidates[i]
		if len(fc.Covers) != len(f.Points) {
			return nil, fmt.Errorf("estimate: candidate %d covers %d points, want %d", i, len(fc.Covers), len(f.Points))
		}
		gi, err := importKM(fc.Gi)
		if err != nil {
			return nil, fmt.Errorf("estimate: candidate %d Gi: %w", i, err)
		}
		gd, err := importKM(fc.Gd)
		if err != nil {
			return nil, fmt.Errorf("estimate: candidate %d Gd: %w", i, err)
		}
		gu, err := importKM(fc.Gu)
		if err != nil {
			return nil, fmt.Errorf("estimate: candidate %d Gu: %w", i, err)
		}
		prof := &profile.Profile{
			SourceID:       fc.SourceID,
			Name:           fc.Name,
			T0:             f.T0,
			B:              bitset.FromWords(f.Universe, fc.B),
			Bcov:           bitset.FromWords(f.Universe, fc.Bcov),
			Bup:            bitset.FromWords(f.Universe, fc.Bup),
			Gi:             gi,
			Gd:             gd,
			Gu:             gu,
			UpdateInterval: fc.UpdateInterval,
			LastUpdate:     fc.LastUpdate,
			AcqDivisor:     1,
			CoverageT0:     fc.CoverageT0,
			InsertDelays:   append([]stats.Duration(nil), fc.InsertDelays...),
		}
		c := &Candidate{Profile: prof, SourceIndex: i, covers: append([]bool(nil), fc.Covers...)}
		c.gi = tabulate(gi, maxDelay)
		c.gd = tabulate(gd, maxDelay)
		c.gu = tabulate(gu, maxDelay)
		e.cands[i] = c
	}
	e.compactTables()
	return e, nil
}
