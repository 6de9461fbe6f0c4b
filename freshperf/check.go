package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/serve"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
)

// selectDecision holds the decision fields of a select response: what was
// chosen and its estimated worth. oracle_calls is left out on purpose —
// it counts the solver's work, which a different but exact execution path
// may legitimately change.
type selectDecision struct {
	Set         []int    `json:"set"`
	Names       []string `json:"names"`
	Divisors    []int    `json:"divisors"`
	Profit      float64  `json:"profit"`
	Gain        float64  `json:"gain"`
	AvgCoverage float64  `json:"avg_coverage"`
	AvgAccuracy float64  `json:"avg_accuracy"`
	Ticks       []int64  `json:"ticks"`
}

// canonical re-encodes a decision with empty slices normalized, so a
// decoded response and a reference compare byte for byte. Every field of
// a quality response is a decision.
func canonical(v any) []byte {
	switch d := v.(type) {
	case *selectDecision:
		d.Set, d.Names, d.Divisors, d.Ticks = nonNil(d.Set), nonNil(d.Names), nonNil(d.Divisors), nonNil(d.Ticks)
	case *serve.QualityResponse:
		d.Set, d.Ticks, d.Points = nonNil(d.Set), nonNil(d.Ticks), nonNil(d.Points)
	}
	b, _ := json.Marshal(v) // plain numbers, strings and slices: cannot fail
	return b
}

func nonNil[T any](xs []T) []T {
	if xs == nil {
		return []T{}
	}
	return xs
}

// reference answers requests on the library's cold path — a fresh
// core.TrainContext per divisor configuration, core.NewProblem and
// Problem.SolveContext for selects, Estimator.QualityMultiState for quality
// — sharing nothing with the server's registry, caches or coalescers.
type reference struct {
	d  *dataset.Dataset
	tr map[string]*core.Trained
}

func newReference(d *dataset.Dataset) *reference {
	return &reference{d: d, tr: map[string]*core.Trained{}}
}

func (r *reference) trained(ctx context.Context, divs []int) (*core.Trained, error) {
	key := serve.DivKey(divs)
	if tr, ok := r.tr[key]; ok {
		return tr, nil
	}
	tr, err := core.TrainContext(ctx, r.d.World, r.d.Sources, r.d.T0, core.TrainOptions{FreqDivisors: divs})
	if err != nil {
		return nil, err
	}
	r.tr[key] = tr
	return tr, nil
}

// resolveTicks turns a request's explicit ticks or future count into the
// ticks freshd evaluates over d.
func resolveTicks(d *dataset.Dataset, explicit []int64, future int) []timeline.Tick {
	if len(explicit) == 0 {
		return serve.SpreadTicks(d.T0, d.Horizon(), future)
	}
	out := make([]timeline.Tick, len(explicit))
	for i, t := range explicit {
		out[i] = timeline.Tick(t)
	}
	return out
}

// qualityResponse assembles a quality response the way freshd does,
// averaging coverage and accuracy over the ticks in tick order.
func qualityResponse(set []int, ticks []timeline.Tick, qs []estimate.QualityEstimate) *serve.QualityResponse {
	resp := &serve.QualityResponse{Set: nonNil(set), Ticks: tickInts(ticks), Points: make([]serve.QualityPoint, len(qs))}
	for k, q := range qs {
		resp.Points[k] = serve.QualityPoint{
			Tick: int64(ticks[k]), Coverage: q.Coverage, LocalFreshness: q.LocalFreshness,
			GlobalFreshness: q.GlobalFreshness, Accuracy: q.Accuracy,
			ExpectedOmega: q.ExpectedOmega, ExpectedSize: q.ExpectedSize,
		}
		resp.AvgCoverage += q.Coverage
		resp.AvgAccuracy += q.Accuracy
	}
	if len(qs) > 0 {
		resp.AvgCoverage /= float64(len(qs))
		resp.AvgAccuracy /= float64(len(qs))
	}
	return resp
}

func (r *reference) selectAnswer(ctx context.Context, b *selectBody) ([]byte, error) {
	tr, err := r.trained(ctx, b.Divisors)
	if err != nil {
		return nil, err
	}
	g, err := serve.MakeGain(b.Gain, b.Metric, r.d.World.NumEntities())
	if err != nil {
		return nil, err
	}
	ticks := resolveTicks(r.d, b.Ticks, b.Future)
	prob, err := core.NewProblem(tr, ticks, g, core.ProblemOptions{Budget: b.Budget})
	if err != nil {
		return nil, err
	}
	sel, err := prob.SolveContext(ctx, core.Algorithm(b.Algorithm), core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	return canonical(&selectDecision{
		Set: sel.Set, Names: sel.Names, Divisors: sel.Divisors, Profit: sel.Profit, Gain: sel.Gain,
		AvgCoverage: sel.AvgCoverage, AvgAccuracy: sel.AvgAccuracy, Ticks: tickInts(ticks),
	}), nil
}

func (r *reference) qualityAnswer(ctx context.Context, b *qualityBody) ([]byte, error) {
	tr, err := r.trained(ctx, b.Divisors)
	if err != nil {
		return nil, err
	}
	ticks := resolveTicks(r.d, b.Ticks, b.Future)
	qs := tr.Est.QualityMultiState(tr.Est.NewSetState(b.Set), ticks)
	return canonical(qualityResponse(b.Set, ticks, qs)), nil
}

// verify compares one response body's decision fields with the reference.
func (r *reference) verify(ctx context.Context, o op, body []byte) error {
	var got, want []byte
	var err error
	if o.kind == "select" {
		var d selectDecision
		if err := json.Unmarshal(body, &d); err != nil {
			return fmt.Errorf("select %s: decoding response: %w", o.tenant, err)
		}
		got = canonical(&d)
		want, err = r.selectAnswer(ctx, o.sel)
	} else {
		var d serve.QualityResponse
		if err := json.Unmarshal(body, &d); err != nil {
			return fmt.Errorf("quality %s: decoding response: %w", o.tenant, err)
		}
		got = canonical(&d)
		want, err = r.qualityAnswer(ctx, o.qual)
	}
	if err != nil {
		return fmt.Errorf("%s %s: reference: %w", o.kind, o.tenant, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s on %s:\n  request:   %s\n  response:  %s\n  reference: %s", o.class, o.tenant, o.body, got, want)
	}
	return nil
}

// streamedDataset is the cold-fit input after streaming: snap's sources
// extended with every streamed observation, cut at the final watermark.
func streamedDataset(snap *dataset.Dataset, epochs []feedEpoch, watermark timeline.Tick) (*dataset.Dataset, error) {
	streamed := make([][]timeline.Event, len(snap.Sources))
	for _, ep := range epochs {
		for _, o := range ep.obs {
			streamed[o.Source] = append(streamed[o.Source], o.Event)
		}
	}
	srcs := make([]*source.Source, len(snap.Sources))
	for i, s := range snap.Sources {
		evs := append(append([]timeline.Event(nil), s.Log().Events()...), streamed[i]...)
		cs, err := source.FromLog(s.ID(), s.Spec(), s.Horizon(), evs)
		if err != nil {
			return nil, err
		}
		srcs[i] = cs
	}
	return &dataset.Dataset{Name: snap.Name, World: snap.World, Sources: srcs, T0: watermark}, nil
}

func tickInts(ts []timeline.Tick) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = int64(t)
	}
	return out
}
