package estimate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"freshsource/internal/source"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// streamSources builds the standard 4-source corpus of buildEstimator
// without fitting, so the streaming tests can extend the same logs.
func streamSources(t *testing.T, w *world.World) []*source.Source {
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

// synthDelta generates a deterministic per-source batch of streamed
// observations with ticks in (cut, newCut], sorted in timeline order:
// appearances, updates and disappearances over random entities, including
// duplicates of archived events and entities outside the source's spec
// points — everything the cold path tolerates, the incremental path must
// tolerate identically.
func synthDelta(rng *rand.Rand, w *world.World, cut, newCut timeline.Tick) []timeline.Event {
	n := rng.Intn(30)
	evs := make([]timeline.Event, 0, n)
	span := int(newCut - cut)
	for k := 0; k < n; k++ {
		at := cut + 1 + timeline.Tick(rng.Intn(span))
		id := timeline.EntityID(rng.Intn(w.NumEntities()))
		switch rng.Intn(3) {
		case 0:
			evs = append(evs, timeline.Event{Entity: id, Kind: timeline.Appear, At: at, Version: 0})
		case 1:
			evs = append(evs, timeline.Event{Entity: id, Kind: timeline.Update, At: at, Version: 1 + rng.Intn(3)})
		default:
			evs = append(evs, timeline.Event{Entity: id, Kind: timeline.Disappear, At: at, Version: rng.Intn(3)})
		}
	}
	sort.Slice(evs, func(a, b int) bool { return timeline.Less(evs[a], evs[b]) })
	return evs
}

// coldRefit is the reference: a full NewFit over the query domain pts and
// sources whose logs are the archived events plus everything streamed so
// far, at the advanced cut.
func coldRefit(t *testing.T, ctx context.Context, w *world.World, srcs []*source.Source, streamed [][]timeline.Event, cut, maxT timeline.Tick, pts []world.DomainPoint, opt FitOptions) *Estimator {
	t.Helper()
	coldSrcs := make([]*source.Source, len(srcs))
	for i, s := range srcs {
		evs := make([]timeline.Event, 0, s.Log().Len()+len(streamed[i]))
		evs = append(evs, s.Log().Events()...)
		evs = append(evs, streamed[i]...)
		cs, err := source.FromLog(s.ID(), s.Spec(), s.Horizon(), evs)
		if err != nil {
			t.Fatalf("cold source %d: %v", i, err)
		}
		coldSrcs[i] = cs
	}
	e, err := NewFit(ctx, w, coldSrcs, cut, maxT, pts, opt)
	if err != nil {
		t.Fatalf("cold fit at %d: %v", cut, err)
	}
	return e
}

// exportBytes marshals an estimator's canonical Fitted form; two estimators
// are byte-identical iff these agree.
func exportBytes(t *testing.T, e *Estimator) []byte {
	t.Helper()
	f, err := e.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// TestStreamingRefitEquivalence pins the streaming-ingestion invariant:
// incremental refit over N epochs is byte-identical to a cold NewFit on
// snapshot+log at the advanced cut, at multiple worker counts and over both
// the whole domain and a one-point restriction (which runs the trackers'
// point filter and the per-point entity walk) — checked at every epoch,
// not just the last, so a drifting intermediate state can't cancel out.
// Both sides run one fit pipeline, so what this pins is
// profile.Tracker.Extend's merge of archived events with streamed deltas.
func TestStreamingRefitEquivalence(t *testing.T) {
	w := testWorld(t)
	const t0, maxT = 300, 440
	const epochs, step = 5, 8
	domains := []struct {
		name string
		pts  []world.DomainPoint
	}{
		{"all", nil},
		{"one", []world.DomainPoint{{Location: 0, Category: 0}}},
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, dom := range domains {
				t.Run("pts="+dom.name, func(t *testing.T) {
					ctx := context.Background()
					opt := FitOptions{Workers: workers}
					srcs := streamSources(t, w)
					acc, err := NewAccumulator(ctx, w, srcs, t0, maxT, dom.pts, opt)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(7))
					streamed := make([][]timeline.Event, len(srcs))
					cut := timeline.Tick(t0)
					for ep := 0; ep < epochs; ep++ {
						newCut := cut + step
						perSource := make([][]timeline.Event, len(srcs))
						for i := range srcs {
							perSource[i] = synthDelta(rng, w, cut, newCut)
							streamed[i] = append(streamed[i], perSource[i]...)
						}
						if err := acc.Advance(ctx, newCut, perSource); err != nil {
							t.Fatalf("epoch %d advance: %v", ep, err)
						}
						cut = newCut

						inc, err := acc.Build(ctx)
						if err != nil {
							t.Fatalf("epoch %d build: %v", ep, err)
						}
						cold := coldRefit(t, ctx, w, srcs, streamed, cut, maxT, dom.pts, opt)
						incF, err := inc.Export()
						if err != nil {
							t.Fatal(err)
						}
						coldF, err := cold.Export()
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(incF, coldF) {
							t.Fatalf("epoch %d (cut %d): incremental refit diverged from cold fit", ep, cut)
						}
						if !bytes.Equal(exportBytes(t, inc), exportBytes(t, cold)) {
							t.Fatalf("epoch %d (cut %d): exports not byte-identical", ep, cut)
						}
					}
				})
			}
		})
	}
}

// TestStreamingRefitMatchesColdQuality spot-checks that the refit estimator
// produces the same quality vectors a cold fit would — Export equality
// should already imply it; this guards the derived tables too.
func TestStreamingRefitMatchesColdQuality(t *testing.T) {
	w := testWorld(t)
	const t0, maxT = 300, 440
	ctx := context.Background()
	srcs := streamSources(t, w)
	acc, err := NewAccumulator(ctx, w, srcs, t0, maxT, nil, FitOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	streamed := make([][]timeline.Event, len(srcs))
	perSource := make([][]timeline.Event, len(srcs))
	newCut := timeline.Tick(t0 + 12)
	for i := range srcs {
		perSource[i] = synthDelta(rng, w, t0, newCut)
		streamed[i] = append(streamed[i], perSource[i]...)
	}
	if err := acc.Advance(ctx, newCut, perSource); err != nil {
		t.Fatal(err)
	}
	inc, err := acc.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldRefit(t, ctx, w, srcs, streamed, newCut, maxT, nil, FitOptions{Workers: 2})
	set := []int{0, 2, 3}
	for _, dt := range []timeline.Tick{5, 20, 60} {
		qi := inc.Quality(set, newCut+dt)
		qc := cold.Quality(set, newCut+dt)
		if qi != qc {
			t.Fatalf("quality at +%d differs: %+v vs %+v", dt, qi, qc)
		}
	}
}

// TestAccumulatorValidation exercises the Advance guard rails: regressing
// cuts, cuts at/after maxT, unsorted or out-of-window deltas, and the
// poisoned-state latch after a failed advance.
func TestAccumulatorValidation(t *testing.T) {
	w := testWorld(t)
	const t0, maxT = 300, 440
	ctx := context.Background()
	srcs := streamSources(t, w)
	acc, err := NewAccumulator(ctx, w, srcs, t0, maxT, nil, FitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty := make([][]timeline.Event, len(srcs))
	if err := acc.Advance(ctx, t0, empty); err == nil {
		t.Error("want error for non-advancing cut")
	}
	if err := acc.Advance(ctx, maxT, empty); err == nil {
		t.Error("want error for cut at maxT")
	}
	if err := acc.Advance(ctx, t0+5, empty[:1]); err == nil {
		t.Error("want error for wrong slice count")
	}
	// None of the rejected calls above touched tracker state; a valid
	// advance still works.
	if err := acc.Advance(ctx, t0+5, empty); err != nil {
		t.Fatalf("valid empty advance: %v", err)
	}
	// An out-of-window delta poisons the accumulator.
	bad := make([][]timeline.Event, len(srcs))
	bad[0] = []timeline.Event{{Entity: 0, Kind: timeline.Appear, At: t0, Version: 0}}
	if err := acc.Advance(ctx, t0+10, bad); err == nil {
		t.Fatal("want error for stale delta tick")
	}
	if err := acc.Advance(ctx, t0+15, empty); err == nil {
		t.Error("want poisoned-accumulator error")
	}
	if _, err := acc.Build(ctx); err == nil {
		t.Error("want poisoned-accumulator error from Build")
	}

	acc2, err := NewAccumulator(ctx, w, srcs, t0, maxT, nil, FitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	unsorted := make([][]timeline.Event, len(srcs))
	unsorted[1] = []timeline.Event{
		{Entity: 3, Kind: timeline.Appear, At: t0 + 2, Version: 0},
		{Entity: 1, Kind: timeline.Appear, At: t0 + 1, Version: 0},
	}
	if err := acc2.Advance(ctx, t0+5, unsorted); err == nil {
		t.Error("want error for unsorted delta")
	}
}
