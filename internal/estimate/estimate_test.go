package estimate

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"freshsource/internal/metrics"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

func testWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{
		Subdomains: []world.SubdomainSpec{
			{Point: world.DomainPoint{Location: 0, Category: 0}, InitialEntities: 600, LambdaAppear: 3, GammaDisappear: 0.01, GammaUpdate: 0.02},
			{Point: world.DomainPoint{Location: 1, Category: 0}, InitialEntities: 400, LambdaAppear: 2, GammaDisappear: 0.015, GammaUpdate: 0.03},
		},
		Horizon: 450,
		Seed:    101,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mkSource(t *testing.T, w *world.World, id source.ID, sp source.Spec, seed int64) *source.Source {
	t.Helper()
	s, err := source.Observe(w, id, sp, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultSpec(pts []world.DomainPoint, insP float64) source.Spec {
	return source.Spec{
		Name:           "s",
		UpdateInterval: 1,
		Points:         pts,
		Insert:         source.CaptureSpec{Prob: insP, Delay: source.ExponentialDelay{Rate: 0.4}},
		Delete:         source.CaptureSpec{Prob: 0.7, Delay: source.ExponentialDelay{Rate: 0.3}},
		Update:         source.CaptureSpec{Prob: 0.6, Delay: source.ExponentialDelay{Rate: 0.3}},
	}
}

// buildEstimator creates a standard 4-source estimator on the test world.
func buildEstimator(t *testing.T, w *world.World) *Estimator {
	t.Helper()
	p0 := world.DomainPoint{Location: 0, Category: 0}
	p1 := world.DomainPoint{Location: 1, Category: 0}
	srcs := []*source.Source{
		mkSource(t, w, 0, defaultSpec(w.Points(), 0.9), 1),
		mkSource(t, w, 1, defaultSpec(w.Points(), 0.5), 2),
		mkSource(t, w, 2, defaultSpec([]world.DomainPoint{p0}, 0.8), 3),
		mkSource(t, w, 3, defaultSpec([]world.DomainPoint{p1}, 0.8), 4),
	}
	e, err := NewFit(context.Background(), w, srcs, 300, 440, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFitWorldPointRecoversRates(t *testing.T) {
	w := testWorld(t)
	p := world.DomainPoint{Location: 0, Category: 0}
	m, err := FitWorldPoint(w, 300, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.LambdaIns-3) > 0.4 {
		t.Errorf("λi = %v, want ≈ 3", m.LambdaIns)
	}
	if math.Abs(m.GammaDel-0.01) > 0.002 {
		t.Errorf("γd = %v, want ≈ 0.01", m.GammaDel)
	}
	if math.Abs(m.GammaUpd-0.02) > 0.004 {
		t.Errorf("γu = %v, want ≈ 0.02", m.GammaUpd)
	}
	if m.OmegaT0 != w.AliveCount(300, []world.DomainPoint{p}) {
		t.Errorf("OmegaT0 = %d", m.OmegaT0)
	}
	if m.LambdaDel <= 0 || m.LambdaUpd <= 0 {
		t.Errorf("λd = %v, λu = %v", m.LambdaDel, m.LambdaUpd)
	}
}

func TestFitWorldPointValidation(t *testing.T) {
	w := testWorld(t)
	p := world.DomainPoint{Location: 0, Category: 0}
	if _, err := FitWorldPoint(w, 0, p); err == nil {
		t.Error("want error for t0 = 0")
	}
	if _, err := FitWorldPoint(w, w.Horizon(), p); err == nil {
		t.Error("want error for t0 = horizon")
	}
}

func TestExpectedOmegaTracksWorld(t *testing.T) {
	w := testWorld(t)
	var models []*WorldModel
	for _, p := range w.Points() {
		m, err := FitWorldPoint(w, 300, p)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	ts := []timeline.Tick{310, 350, 400, 440}
	pred := PredictOmegaSeries(models, ts)
	for i, tk := range ts {
		actual := float64(w.AliveCount(tk, nil))
		if re := stats.RelativeError(pred[i], actual); re > 0.05 {
			t.Errorf("tick %d: predicted %v, actual %v (rel err %v)", tk, pred[i], actual, re)
		}
	}
}

func TestNewValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := NewFit(context.Background(), w, nil, 300, 400, nil, FitOptions{}); err == nil {
		t.Error("want error for no sources")
	}
	s := mkSource(t, w, 0, defaultSpec(w.Points(), 1), 1)
	if _, err := NewFit(context.Background(), w, []*source.Source{s}, 300, 300, nil, FitOptions{}); err == nil {
		t.Error("want error for maxT <= t0")
	}
}

func TestQualityOutOfRangePanics(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for tick beyond MaxT")
		}
	}()
	e.Quality([]int{0}, 441)
}

func TestEmptySetQuality(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	q := e.Quality(nil, 350)
	if q.Coverage != 0 || q.GlobalFreshness != 0 || q.ExpectedSize != 0 {
		t.Errorf("empty set estimate = %+v", q)
	}
	if q.ExpectedOmega <= 0 {
		t.Error("expected world size must be positive")
	}
}

func TestQualityAtT0MatchesSignatures(t *testing.T) {
	// At t = t0 the estimate must reproduce the signature-derived state.
	w := testWorld(t)
	e := buildEstimator(t, w)
	set := []int{0, 1}
	q := e.Quality(set, 300)
	// Ground truth at t0 from the metrics package.
	truth := metrics.QualityAt(w, nil, 300, nil) // world size only
	_ = truth
	cov := q.Coverage
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage at t0 = %v", cov)
	}
	// Directly compare against union of signatures.
	p0 := e.Candidate(0).Profile
	p1 := e.Candidate(1).Profile
	covUnion := p0.Bcov.Clone()
	covUnion.UnionWith(p1.Bcov)
	want := float64(covUnion.Count()) / float64(w.AliveCount(300, nil))
	if math.Abs(cov-want) > 1e-9 {
		t.Errorf("estimated coverage at t0 = %v, signature union = %v", cov, want)
	}
}

func TestEstimateTracksGroundTruth(t *testing.T) {
	// The headline claim (Figures 10b, 11): quality predictions stay
	// within a few percent of ground truth over the evaluation window.
	w := testWorld(t)
	p0 := world.DomainPoint{Location: 0, Category: 0}
	p1 := world.DomainPoint{Location: 1, Category: 0}
	srcs := []*source.Source{
		mkSource(t, w, 0, defaultSpec(w.Points(), 0.9), 1),
		mkSource(t, w, 1, defaultSpec(w.Points(), 0.5), 2),
		mkSource(t, w, 2, defaultSpec([]world.DomainPoint{p0}, 0.8), 3),
		mkSource(t, w, 3, defaultSpec([]world.DomainPoint{p1}, 0.8), 4),
	}
	e, err := NewFit(context.Background(), w, srcs, 300, 440, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := []int{0, 2}
	for _, tk := range []timeline.Tick{320, 360, 400, 440} {
		est := e.Quality(set, tk)
		truth := metrics.QualityAt(w, []*source.Source{srcs[0], srcs[2]}, tk, nil)
		if re := stats.RelativeError(est.Coverage, truth.Coverage); re > 0.05 {
			t.Errorf("tick %d: est coverage %v vs truth %v (rel err %.3f)", tk, est.Coverage, truth.Coverage, re)
		}
		if re := stats.RelativeError(est.GlobalFreshness, truth.GlobalFreshness); re > 0.12 {
			t.Errorf("tick %d: est GF %v vs truth %v (rel err %.3f)", tk, est.GlobalFreshness, truth.GlobalFreshness, re)
		}
	}
}

func TestCoverageMonotoneAndSubmodular(t *testing.T) {
	// Theorem 1 on random instances via testing/quick: for random
	// A ⊆ B and x ∉ B, marginal(A, x) ≥ marginal(B, x), and adding any
	// element never decreases coverage.
	w := testWorld(t)
	e := buildEstimator(t, w)
	n := e.NumCandidates()
	cov := func(set []int, tk timeline.Tick) float64 {
		return e.Quality(set, tk).Coverage
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tk := timeline.Tick(310 + r.Intn(120))
		var a, b []int
		var x = -1
		perm := r.Perm(n)
		x = perm[0]
		for _, i := range perm[1:] {
			if r.Intn(2) == 0 {
				a = append(a, i)
			}
		}
		b = append(append([]int{}, a...), extraOf(perm[1:], a, r)...)
		ca, cax := cov(a, tk), cov(append(append([]int{}, a...), x), tk)
		cb, cbx := cov(b, tk), cov(append(append([]int{}, b...), x), tk)
		const eps = 1e-9
		if cax < ca-eps || cbx < cb-eps {
			return false // monotonicity violated
		}
		return (cax-ca)-(cbx-cb) >= -eps // submodularity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// extraOf returns elements of pool not in base (possibly empty subset).
func extraOf(pool, base []int, r *rand.Rand) []int {
	inBase := map[int]bool{}
	for _, v := range base {
		inBase[v] = true
	}
	var out []int
	for _, v := range pool {
		if !inBase[v] && r.Intn(2) == 0 {
			out = append(out, v)
		}
	}
	return out
}

func TestGlobalFreshnessMonotoneAndSubmodular(t *testing.T) {
	// Theorem 2 on random instances.
	w := testWorld(t)
	e := buildEstimator(t, w)
	n := e.NumCandidates()
	gf := func(set []int, tk timeline.Tick) float64 {
		return e.Quality(set, tk).GlobalFreshness
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tk := timeline.Tick(310 + r.Intn(120))
		perm := r.Perm(n)
		x := perm[0]
		var a []int
		for _, i := range perm[1:] {
			if r.Intn(2) == 0 {
				a = append(a, i)
			}
		}
		b := append(append([]int{}, a...), extraOf(perm[1:], a, r)...)
		ga, gax := gf(a, tk), gf(append(append([]int{}, a...), x), tk)
		gb, gbx := gf(b, tk), gf(append(append([]int{}, b...), x), tk)
		const eps = 1e-9
		if gax < ga-eps || gbx < gb-eps {
			return false
		}
		return (gax-ga)-(gbx-gb) >= -eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFrequencyVariantsLagBase(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	base := e.NumCandidates()
	total, err := e.AddFrequencyVariants([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if total != base*3 {
		t.Fatalf("total candidates = %d, want %d", total, base*3)
	}
	// A slower acquisition of the same source can only have lower or equal
	// coverage at any future tick.
	for i := 0; i < base; i++ {
		for v := 0; v < 2; v++ {
			vi := base + i*2 + v
			if e.Candidate(vi).SourceIndex != e.Candidate(i).SourceIndex {
				t.Fatalf("variant %d has wrong source index", vi)
			}
			for _, tk := range []timeline.Tick{320, 380, 440} {
				qb := e.Quality([]int{i}, tk).Coverage
				qv := e.Quality([]int{vi}, tk).Coverage
				if qv > qb+1e-9 {
					t.Errorf("cand %d divisor %d coverage %v above base %v at %d",
						i, e.Candidate(vi).Divisor(), qv, qb, tk)
				}
			}
		}
	}
}

func TestVariantsShareTables(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	base := e.NumCandidates()
	if _, err := e.AddFrequencyVariants([]int{3}); err != nil {
		t.Fatal(err)
	}
	c0, cv := e.Candidate(0), e.Candidate(base)
	if &c0.gi[0] != &cv.gi[0] {
		t.Error("variants should share effectiveness tables")
	}
	if cv.Divisor() != 3 {
		t.Errorf("divisor = %d", cv.Divisor())
	}
}

func TestLiteralModeDiffers(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	q1 := e.Quality([]int{0, 1}, 400)
	e.Literal = true
	q2 := e.Quality([]int{0, 1}, 400)
	if q1.GlobalFreshness == q2.GlobalFreshness {
		t.Error("literal exponent mode should change freshness estimates")
	}
	// Coverage does not involve the corrected exponents.
	if q1.Coverage != q2.Coverage {
		t.Error("literal mode must not change coverage")
	}
}

func TestDomainRestrictedEstimator(t *testing.T) {
	w := testWorld(t)
	p0 := world.DomainPoint{Location: 0, Category: 0}
	srcs := []*source.Source{
		mkSource(t, w, 0, defaultSpec(w.Points(), 0.9), 1),
		mkSource(t, w, 1, defaultSpec([]world.DomainPoint{p0}, 0.8), 3),
	}
	e, err := NewFit(context.Background(), w, srcs, 300, 440, []world.DomainPoint{p0}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Points()) != 1 {
		t.Fatalf("points = %v", e.Points())
	}
	q := e.Quality([]int{0, 1}, 400)
	truth := metrics.QualityAt(w, srcs, 400, []world.DomainPoint{p0})
	if re := stats.RelativeError(q.Coverage, truth.Coverage); re > 0.06 {
		t.Errorf("restricted coverage est %v vs truth %v", q.Coverage, truth.Coverage)
	}
}

func TestQualityMultiConsistent(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	ts := []timeline.Tick{310, 350, 420}
	multi := e.QualityMulti([]int{0, 2}, ts)
	for i, tk := range ts {
		single := e.Quality([]int{0, 2}, tk)
		if multi[i] != single {
			t.Errorf("multi[%d] != single at %d", i, tk)
		}
	}
}

func TestAccuracyConsistentWithEq5(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	q := e.Quality([]int{0, 1, 2}, 380)
	want := metrics.AccuracyFromComponents(q.Coverage, q.LocalFreshness, q.GlobalFreshness)
	if math.Abs(q.Accuracy-want) > 1e-12 {
		t.Errorf("accuracy %v != Eq5 %v", q.Accuracy, want)
	}
	if q.Accuracy <= 0 || q.Accuracy > 1 {
		t.Errorf("accuracy out of range: %v", q.Accuracy)
	}
}
