package histint

import (
	"context"
	"math"
	"testing"

	"freshsource/internal/estimate"
	"freshsource/internal/metrics"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
)

// TestToWorldShape checks the reconstruction-to-world conversion.
func TestToWorldShape(t *testing.T) {
	w := testWorld(t)
	ren := NewRenderer(w)
	srcs := []*source.Source{
		observe(t, w, 0, 0.9, 0.8, 41),
		observe(t, w, 1, 0.9, 0.8, 42),
	}
	res := Integrate(ren, srcs)
	rw, idOf, err := res.ToWorld(w.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if rw.NumEntities() != res.NumClusters() {
		t.Errorf("reconstructed world has %d entities, %d clusters", rw.NumEntities(), res.NumClusters())
	}
	if len(idOf) != res.NumClusters() {
		t.Fatalf("idOf length %d", len(idOf))
	}
	for cl, id := range idOf {
		if id < 0 {
			t.Errorf("cluster %d dropped unexpectedly", cl)
			continue
		}
		if rw.Entity(id).Point != res.Points[cl] {
			t.Errorf("cluster %d point mismatch", cl)
		}
	}
	// The reconstructed population tracks the truth within the coverage of
	// the sources; deletions missed by every mentioning source inflate it
	// (the NDel phenomenon), so allow slack upward.
	at := w.Horizon() - 1
	trueAlive := w.AliveCount(at, nil)
	recAlive := rw.AliveCount(at, nil)
	if recAlive < trueAlive/2 || recAlive > trueAlive*3/2 {
		t.Errorf("reconstructed alive %d vs true %d", recAlive, trueAlive)
	}
}

// TestReconstructedTrainingMatchesGold is the realistic-pipeline test: fit
// the estimator on integrated history (what a deployment has) and on the
// simulator's gold standard, and verify the coverage estimates agree
// closely.
func TestReconstructedTrainingMatchesGold(t *testing.T) {
	w := testWorld(t)
	ren := NewRenderer(w)
	srcs := []*source.Source{
		observe(t, w, 0, 0.95, 0.9, 51),
		observe(t, w, 1, 0.95, 0.9, 52),
		observe(t, w, 2, 0.95, 0.9, 53),
	}
	res := Integrate(ren, srcs)
	rw, idOf, err := res.ToWorld(w.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	var rekeyed []*source.Source
	for _, s := range srcs {
		rs, err := RekeySource(ren, res, idOf, s)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Log().Len() == 0 {
			t.Fatalf("rekeyed source %d empty", s.ID())
		}
		rekeyed = append(rekeyed, rs)
	}

	t0 := timeline.Tick(130)
	maxT := w.Horizon() - 1
	gold, err := estimate.NewFit(context.Background(), w, srcs, t0, maxT, nil, estimate.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := estimate.NewFit(context.Background(), rw, rekeyed, t0, maxT, nil, estimate.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range []timeline.Tick{150, 170, 190} {
		qg := gold.QualityMulti([]int{0, 1}, []timeline.Tick{tk})[0]
		qr := recon.QualityMulti([]int{0, 1}, []timeline.Tick{tk})[0]
		if math.Abs(qg.Coverage-qr.Coverage) > 0.08 {
			t.Errorf("tick %d: gold coverage %v vs reconstructed %v", tk, qg.Coverage, qr.Coverage)
		}
	}
}

// TestRekeyedSourcePreservesQuality: a rekeyed source measured against the
// reconstructed world should show quality close to the original source
// against the true world.
func TestRekeyedSourcePreservesQuality(t *testing.T) {
	w := testWorld(t)
	ren := NewRenderer(w)
	srcs := []*source.Source{
		observe(t, w, 0, 0.9, 0.8, 61),
		observe(t, w, 1, 0.9, 0.8, 62),
	}
	res := Integrate(ren, srcs)
	rw, idOf, err := res.ToWorld(w.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RekeySource(ren, res, idOf, srcs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := timeline.Tick(150)
	qTrue := metrics.QualityAt(w, srcs[:1], at, nil)
	qRec := metrics.QualityAt(rw, []*source.Source{rs}, at, nil)
	// The reconstructed world only contains entities some source saw, so
	// reconstructed coverage can only be ≥ the true coverage; it should
	// still be in the same ballpark with two strong sources.
	if qRec.Coverage < qTrue.Coverage-0.02 {
		t.Errorf("reconstructed coverage %v below true %v", qRec.Coverage, qTrue.Coverage)
	}
	if qRec.Coverage > qTrue.Coverage+0.25 {
		t.Errorf("reconstructed coverage %v implausibly above true %v", qRec.Coverage, qTrue.Coverage)
	}
}
