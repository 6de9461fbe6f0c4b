package estimate

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"freshsource/internal/source"
	"freshsource/internal/world"
)

func buildFitSources(t *testing.T, w *world.World) []*source.Source {
	t.Helper()
	p0 := world.DomainPoint{Location: 0, Category: 0}
	p1 := world.DomainPoint{Location: 1, Category: 0}
	return []*source.Source{
		mkSource(t, w, 0, defaultSpec(w.Points(), 0.9), 1),
		mkSource(t, w, 1, defaultSpec(w.Points(), 0.5), 2),
		mkSource(t, w, 2, defaultSpec([]world.DomainPoint{p0}, 0.8), 3),
		mkSource(t, w, 3, defaultSpec([]world.DomainPoint{p1}, 0.8), 4),
	}
}

// TestNewFitDeterministicAcrossWorkers pins the fit pipeline's central
// contract: the fitted estimator is byte-identical at any worker count —
// every model, table, signature and profile, compared structurally down
// to float bits via DeepEqual.
func TestNewFitDeterministicAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	srcs := buildFitSources(t, w)

	ref, err := NewFit(context.Background(), w, srcs, 300, 440, nil, FitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
		got, err := NewFit(context.Background(), w, srcs, 300, 440, nil, FitOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: fitted estimator differs from sequential fit", workers)
		}
	}
}

func TestNewFitCanceled(t *testing.T) {
	w := testWorld(t)
	srcs := buildFitSources(t, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := NewFit(ctx, w, srcs, 300, 440, nil, FitOptions{Workers: workers}); err == nil {
			t.Errorf("workers=%d: want error from canceled context", workers)
		}
	}
}

// TestFrequencyVariantsShareTables pins the aliasing invariant that both
// the variant fast path and the model cache rely on: an S^m variant's
// effectiveness tables, coverage flags and KM distributions are the base
// candidate's — shared, not recomputed — because effectiveness describes
// the source, not the acquisition schedule. The derived estimator shares
// its base's lookup tables and candidates too, and leaves the base as it
// was: the serving registry derives every divisor list from one fit.
func TestFrequencyVariantsShareTables(t *testing.T) {
	w := testWorld(t)
	fit := buildEstimator(t, w)
	base := fit.NumCandidates()
	// Spare capacity in the base's candidate slice must not be lent out:
	// every derived list appends into an array of its own.
	fit.cands = slices.Grow(fit.cands, 3*base)
	e, err := fit.WithFrequencyVariants([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumCandidates()
	if n != 3*base {
		t.Fatalf("got %d candidates, want %d", n, 3*base)
	}
	if fit.NumCandidates() != base {
		t.Fatalf("base estimator grew to %d candidates, want %d", fit.NumCandidates(), base)
	}
	if &e.survDel[0][0] != &fit.survDel[0][0] || &e.lamIns[0][0] != &fit.lamIns[0][0] || e.masks[0] != fit.masks[0] || e.models[0] != fit.models[0] {
		t.Error("derived estimator does not share the base's models and lookup tables")
	}
	for i := 0; i < base; i++ {
		if e.Candidate(i) != fit.Candidate(i) || &e.Candidate(i).gi[0] != &fit.Candidate(i).gi[0] {
			t.Errorf("derived candidate %d is not the base's", i)
		}
	}
	if &e.cands[0] == &fit.cands[0] {
		t.Error("derived estimator appends into the base's candidate array")
	}
	if e5, err := fit.WithFrequencyVariants([]int{5}); err != nil || e5.Candidate(base).Divisor() != 5 || e.Candidate(base).Divisor() != 2 {
		t.Errorf("a second derivation disturbed the first (err %v)", err)
	}
	for vi := base; vi < n; vi++ {
		v := e.Candidate(vi)
		b := e.Candidate(v.SourceIndex)
		if &v.gi[0] != &b.gi[0] || &v.gd[0] != &b.gd[0] || &v.gu[0] != &b.gu[0] {
			t.Errorf("variant %d does not alias base %d effectiveness tables", vi, v.SourceIndex)
		}
		if &v.covers[0] != &b.covers[0] {
			t.Errorf("variant %d does not alias base %d covers", vi, v.SourceIndex)
		}
		if v.Profile.Gi != b.Profile.Gi {
			t.Errorf("variant %d does not share base %d KM distributions", vi, v.SourceIndex)
		}
	}
}

// TestExportFromFittedRoundTrip checks the in-memory half of the model
// cache: Export → FromFitted reproduces the estimator exactly, including
// every derived table.
func TestExportFromFittedRoundTrip(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	f, err := e.Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromFitted(w, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Error("FromFitted(Export()) differs from the original estimator")
	}
}

func TestExportRejectsDerivedCandidates(t *testing.T) {
	w := testWorld(t)
	b := buildEstimator(t, w)
	e, err := b.WithFrequencyVariants([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Export(); err == nil {
		t.Error("want error exporting an estimator with frequency variants")
	}
}

func TestFromFittedRejectsMismatchedWorld(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	f, err := e.Export()
	if err != nil {
		t.Fatal(err)
	}
	f.Universe++
	if _, err := FromFitted(w, f); err == nil {
		t.Error("want error for universe mismatch")
	}
}
