package gain

import (
	"context"
	"math"
	"testing"

	"freshsource/internal/estimate"
	"freshsource/internal/obs"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

func q(cov, lf, gf, acc float64) estimate.QualityEstimate {
	return estimate.QualityEstimate{Coverage: cov, LocalFreshness: lf, GlobalFreshness: gf, Accuracy: acc}
}

func TestMetricOf(t *testing.T) {
	v := q(0.1, 0.2, 0.3, 0.4)
	if Coverage.Of(v) != 0.1 || LocalFreshness.Of(v) != 0.2 || GlobalFreshness.Of(v) != 0.3 || Accuracy.Of(v) != 0.4 {
		t.Error("Metric.Of extraction wrong")
	}
}

func TestMetricStringsAndSubmodularity(t *testing.T) {
	if Coverage.String() != "coverage" || Accuracy.String() != "accuracy" {
		t.Error("metric strings")
	}
	if !Coverage.Submodular() || !GlobalFreshness.Submodular() {
		t.Error("coverage/GF should be submodular")
	}
	if LocalFreshness.Submodular() || Accuracy.Submodular() {
		t.Error("LF/accuracy should not be submodular")
	}
}

func TestLinearGain(t *testing.T) {
	g := Linear{Metric: Coverage}
	if got := g.Eval(q(0.5, 0, 0, 0)); got != 50 {
		t.Errorf("linear(0.5) = %v", got)
	}
	if g.MaxGain() != 100 {
		t.Error("max gain")
	}
	if !g.Submodular() {
		t.Error("linear coverage should be submodular")
	}
	if (Linear{Metric: Accuracy}).Submodular() {
		t.Error("linear accuracy should not be submodular")
	}
}

func TestQuadGain(t *testing.T) {
	g := Quad{Metric: Coverage}
	if got := g.Eval(q(0.5, 0, 0, 0)); got != 25 {
		t.Errorf("quad(0.5) = %v", got)
	}
	if g.Submodular() {
		t.Error("quad should not claim submodularity")
	}
}

func TestStepGainStaircase(t *testing.T) {
	g := Step{Metric: Coverage}
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.1, 10}, {0.2, 100}, {0.3, 110},
		{0.5, 150}, {0.6, 160}, {0.7, 200}, {0.9, 220},
		{0.95, 300}, {1.0, 305},
	}
	for _, c := range cases {
		if got := g.Eval(q(c.in, 0, 0, 0)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("step(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Non-decreasing everywhere.
	prev := -1.0
	for v := 0.0; v <= 1.0; v += 0.001 {
		got := g.Eval(q(v, 0, 0, 0))
		if got < prev {
			t.Fatalf("step gain decreases at %v", v)
		}
		prev = got
	}
	if g.MaxGain() != 305 {
		t.Error("max gain")
	}
}

func TestDataGain(t *testing.T) {
	g := Data{PerItem: 10, OmegaMax: 1000}
	v := estimate.QualityEstimate{ExpectedCovered: 250}
	if got := g.Eval(v); got != 2500 {
		t.Errorf("data gain = %v", got)
	}
	if g.MaxGain() != 10000 {
		t.Error("max gain")
	}
	if !g.Submodular() {
		t.Error("data gain is linear in covered count")
	}
}

// Integration fixtures: a small estimator over a generated world.
func buildFixture(t *testing.T) (*estimate.Estimator, *world.World) {
	t.Helper()
	w, err := world.Generate(world.Config{
		Subdomains: []world.SubdomainSpec{
			{Point: world.DomainPoint{Location: 0, Category: 0}, InitialEntities: 300, LambdaAppear: 2, GammaDisappear: 0.01, GammaUpdate: 0.02},
		},
		Horizon: 300,
		Seed:    201,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(insP float64) source.Spec {
		return source.Spec{
			Name:           "s",
			UpdateInterval: 1,
			Points:         w.Points(),
			Insert:         source.CaptureSpec{Prob: insP, Delay: source.ExponentialDelay{Rate: 0.5}},
			Delete:         source.CaptureSpec{Prob: 0.8, Delay: source.ExponentialDelay{Rate: 0.5}},
			Update:         source.CaptureSpec{Prob: 0.7, Delay: source.ExponentialDelay{Rate: 0.5}},
		}
	}
	var srcs []*source.Source
	for i, p := range []float64{0.9, 0.6, 0.3} {
		s, err := source.Observe(w, source.ID(i), spec(p), stats.NewRNG(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, s)
	}
	e, err := estimate.NewFit(context.Background(), w, srcs, 200, 290, nil, estimate.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e, w
}

func TestSharedItemCost(t *testing.T) {
	e, _ := buildFixture(t)
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger sources cost more.
	if cm.Cost(0) <= cm.Cost(2) {
		t.Errorf("cost(0)=%v should exceed cost(2)=%v", cm.Cost(0), cm.Cost(2))
	}
	// Additivity.
	if math.Abs(cm.SetCost([]int{0, 1})-(cm.Cost(0)+cm.Cost(1))) > 1e-9 {
		t.Error("SetCost not additive")
	}
	if cm.Total() <= 0 {
		t.Error("total must be positive")
	}
	if _, err := NewSharedItemCost(e, 0); err == nil {
		t.Error("want error for non-positive perItem")
	}
}

func TestFrequencyDiscount(t *testing.T) {
	b, _ := buildFixture(t)
	base := b.NumCandidates()
	e, err := b.WithFrequencyVariants([]int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Variant costs follow c/(1+m/10): divisor 2 cheaper than 1, divisor 5
	// cheaper than 2.
	c1, c2, c5 := cm.Cost(0), cm.Cost(base), cm.Cost(base+1)
	if !(c1 > c2 && c2 > c5) {
		t.Errorf("frequency discount violated: %v, %v, %v", c1, c2, c5)
	}
	want2 := c1 * 1.1 / 1.2
	if math.Abs(c2-want2) > 1e-9 {
		t.Errorf("divisor-2 cost = %v, want %v", c2, want2)
	}
}

// profitCalls turns telemetry on for the test and returns a reader of the
// oracle calls Profit has counted in it since: Value and ValueAdd alike.
func profitCalls(t *testing.T) func() int64 {
	t.Helper()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	value, add := reg.Counter("gain.profit.value_calls"), reg.Counter("gain.profit.value_add_calls")
	base := value.Value() + add.Value()
	return func() int64 { return value.Value() + add.Value() - base }
}

func TestProfitOracle(t *testing.T) {
	calls := profitCalls(t)
	e, _ := buildFixture(t)
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	ticks := []timeline.Tick{210, 230, 250}
	p, err := NewProfit(e, ticks, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	v0 := p.Value(nil)
	if v0 != 0 {
		t.Errorf("empty profit = %v", v0)
	}
	v1 := p.Value([]int{0})
	if v1 <= 0 {
		t.Errorf("single good source profit = %v", v1)
	}
	if got := calls(); got != 2 {
		t.Errorf("calls = %d", got)
	}
	g, cov, acc := p.Report([]int{0})
	// The gain alone ≥ profit (cost is non-negative).
	if g < v1 {
		t.Error("gain-only below profit")
	}
	// Average quality in [0,1].
	if cov <= 0 || cov > 1 {
		t.Errorf("avg coverage = %v", cov)
	}
	if acc < 0 || acc > 1 {
		t.Errorf("avg accuracy = %v", acc)
	}
	if got := calls(); got != 2 {
		t.Errorf("Report counted %d oracle calls, want none", got-2)
	}
}

func TestProfitBudget(t *testing.T) {
	e, _ := buildFixture(t)
	cm, _ := NewSharedItemCost(e, 10)
	p, err := NewProfit(e, []timeline.Tick{250}, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible([]int{0, 1, 2}) {
		t.Error("unconstrained should always be feasible")
	}
	p.Budget = cm.Cost(2)/cm.Total() + 1e-12
	if !p.Feasible([]int{2}) {
		t.Error("cheapest source should fit its own budget")
	}
	if p.Feasible([]int{0, 1, 2}) {
		t.Error("everything should exceed the tight budget")
	}
}

func TestProfitValidation(t *testing.T) {
	e, _ := buildFixture(t)
	cm, _ := NewSharedItemCost(e, 10)
	if _, err := NewProfit(e, nil, Linear{}, cm); err == nil {
		t.Error("want error for no ticks")
	}
	if _, err := NewProfit(e, []timeline.Tick{1000}, Linear{}, cm); err == nil {
		t.Error("want error for tick outside range")
	}
}

func TestProfitNilCost(t *testing.T) {
	e, _ := buildFixture(t)
	p, err := NewProfit(e, []timeline.Tick{250}, Linear{Metric: Coverage}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, _, _ := p.Report([]int{0}); p.Value([]int{0}) != g {
		t.Error("nil cost model should make profit equal gain")
	}
	if !p.Feasible([]int{0, 1, 2}) {
		t.Error("nil cost model is always feasible")
	}
}
