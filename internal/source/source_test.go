package source

import (
	"testing"

	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

func testWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{
		Subdomains: []world.SubdomainSpec{
			{Point: world.DomainPoint{Location: 0, Category: 0}, InitialEntities: 300, LambdaAppear: 2, GammaDisappear: 0.01, GammaUpdate: 0.03},
			{Point: world.DomainPoint{Location: 1, Category: 0}, InitialEntities: 200, LambdaAppear: 1, GammaDisappear: 0.01, GammaUpdate: 0.03},
		},
		Horizon: 200,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func perfectSpec(pts []world.DomainPoint) Spec {
	return Spec{
		Name:           "perfect",
		UpdateInterval: 1,
		Points:         pts,
		Insert:         CaptureSpec{Prob: 1, Delay: ConstantDelay{0}},
		Delete:         CaptureSpec{Prob: 1, Delay: ConstantDelay{0}},
		Update:         CaptureSpec{Prob: 1, Delay: ConstantDelay{0}},
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct {
		t, interval, phase, want timeline.Tick
	}{
		{0, 7, 0, 0}, {1, 7, 0, 7}, {7, 7, 0, 7}, {8, 7, 0, 14},
		{0, 7, 3, 3}, {3, 7, 3, 3}, {4, 7, 3, 10}, {10, 7, 3, 10}, {11, 7, 3, 17},
		{5, 1, 0, 5},
	}
	for _, c := range cases {
		if got := AlignUp(c.t, c.interval, c.phase); got != c.want {
			t.Errorf("AlignUp(%d,%d,%d) = %d, want %d", c.t, c.interval, c.phase, got, c.want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	pts := []world.DomainPoint{{Location: 0, Category: 0}}
	bad := []Spec{
		{UpdateInterval: 0, Points: pts, Insert: CaptureSpec{Prob: 1, Delay: ConstantDelay{0}}},
		{UpdateInterval: 5, Phase: 5, Points: pts, Insert: CaptureSpec{Prob: 1, Delay: ConstantDelay{0}}},
		{UpdateInterval: 1, Points: nil, Insert: CaptureSpec{Prob: 1, Delay: ConstantDelay{0}}},
		{UpdateInterval: 1, Points: pts, Insert: CaptureSpec{Prob: 2, Delay: ConstantDelay{0}}},
		{UpdateInterval: 1, Points: pts, Insert: CaptureSpec{Prob: 0.5}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
	if err := perfectSpec(pts).Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestPerfectSourceMirrorsWorld(t *testing.T) {
	w := testWorld(t)
	src, err := Observe(w, 0, perfectSpec(w.Points()), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// A perfect daily source's snapshot must equal the world's at every
	// sampled tick.
	for _, at := range []timeline.Tick{0, 50, 120, 199} {
		ws := timeline.Materialize(w.Log(), at)
		ss := src.SnapshotAt(at)
		if ws.Size() != ss.Size() {
			t.Fatalf("tick %d: source %d entities, world %d", at, ss.Size(), ws.Size())
		}
		for id, st := range ws.States {
			got, ok := ss.States[id]
			if !ok || got.Version != st.Version {
				t.Fatalf("tick %d entity %d: source %+v, world %+v", at, got, id, st)
			}
		}
	}
}

func TestDelayedSourceLagsWorld(t *testing.T) {
	w := testWorld(t)
	spec := perfectSpec(w.Points())
	spec.Insert.Delay = ConstantDelay{10}
	src, err := Observe(w, 0, spec, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range src.Log().Events() {
		if e.Kind == timeline.Appear {
			born := w.Entity(e.Entity).Born
			if e.At < born+10 {
				t.Fatalf("entity %d inserted at %d, born %d, delay 10 violated", e.Entity, e.At, born)
			}
		}
	}
}

func TestCaptureProbabilityZeroMeansEmpty(t *testing.T) {
	w := testWorld(t)
	spec := perfectSpec(w.Points())
	spec.Insert = CaptureSpec{Prob: 0}
	src, err := Observe(w, 0, spec, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if src.Log().Len() != 0 {
		t.Errorf("source with zero insert probability has %d events", src.Log().Len())
	}
}

func TestMissedDeletionsLeaveStaleEntries(t *testing.T) {
	w := testWorld(t)
	spec := perfectSpec(w.Points())
	spec.Delete = CaptureSpec{Prob: 0}
	src, err := Observe(w, 0, spec, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	at := w.Horizon() - 1
	snap := src.SnapshotAt(at)
	stale := 0
	for id := range snap.States {
		if !w.Entity(id).Alive(at) {
			stale++
		}
	}
	if stale == 0 {
		t.Error("expected stale non-deleted entries when deletions are never captured")
	}
}

func TestScheduleAlignment(t *testing.T) {
	w := testWorld(t)
	spec := perfectSpec(w.Points())
	spec.UpdateInterval = 7
	spec.Phase = 2
	src, err := Observe(w, 0, spec, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if src.Log().Len() == 0 {
		t.Fatal("empty log")
	}
	for _, e := range src.Log().Events() {
		if (e.At-2)%7 != 0 {
			t.Fatalf("event at %d not on schedule (interval 7, phase 2)", e.At)
		}
	}
}

func TestSourceNeverAheadOfWorld(t *testing.T) {
	// Invariant: a source can never reflect a version before the world
	// reached it, and never shows an entity before its insertion capture.
	w := testWorld(t)
	spec := perfectSpec(w.Points())
	spec.Insert.Delay = ExponentialDelay{Rate: 0.2}
	spec.Update.Delay = ExponentialDelay{Rate: 0.1}
	spec.Delete.Delay = ExponentialDelay{Rate: 0.3}
	spec.Insert.Prob, spec.Update.Prob, spec.Delete.Prob = 0.9, 0.7, 0.6
	src, err := Observe(w, 0, spec, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range src.Log().Events() {
		ent := w.Entity(e.Entity)
		switch e.Kind {
		case timeline.Appear:
			if e.At < ent.Born {
				t.Fatalf("insertion before birth: %+v", e)
			}
		case timeline.Update:
			if e.Version < 1 || e.Version > len(ent.Updates) {
				t.Fatalf("bogus version: %+v", e)
			}
			if e.At < ent.Updates[e.Version-1] {
				t.Fatalf("update reflected before it happened: %+v", e)
			}
		case timeline.Disappear:
			if e.At < ent.Died {
				t.Fatalf("deletion before death: %+v", e)
			}
		}
	}
}

func TestDownsampleCoarsensSchedule(t *testing.T) {
	w := testWorld(t)
	src, err := Observe(w, 0, perfectSpec(w.Points()), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	down, err := src.Downsample(5)
	if err != nil {
		t.Fatal(err)
	}
	if down.UpdateInterval() != 5 {
		t.Errorf("downsampled interval = %d", down.UpdateInterval())
	}
	for _, e := range down.Log().Events() {
		if e.At%5 != 0 {
			t.Fatalf("downsampled event at %d not on coarse schedule", e.At)
		}
	}
	// Downsampling can only delay content: at any tick the coarse source's
	// up-to-date view lags the fine one.
	if down.Log().Len() > src.Log().Len() {
		t.Error("downsampling added events")
	}
	// div=1 is the identity.
	same, err := src.Downsample(1)
	if err != nil || same != src {
		t.Error("Downsample(1) should return the receiver")
	}
	if _, err := src.Downsample(0); err == nil {
		t.Error("want error for divisor 0")
	}
}

func TestDownsampleCoverageNotHigher(t *testing.T) {
	w := testWorld(t)
	src, err := Observe(w, 0, perfectSpec(w.Points()), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	down, err := src.Downsample(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []timeline.Tick{10, 60, 150} {
		fine, coarse := src.SnapshotAt(at), down.SnapshotAt(at)
		for id, st := range coarse.States {
			fs, ok := fine.States[id]
			if !ok {
				// Legal only when the fine source already deleted the
				// entity and the coarse re-alignment pushed the deletion
				// past this tick.
				deleted := false
				for _, e := range src.Log().Events() {
					if e.Entity == id && e.Kind == timeline.Disappear && e.At <= at {
						deleted = true
						break
					}
				}
				if !deleted {
					t.Fatalf("tick %d: entity %d in coarse but not fine source without a fine deletion", at, id)
				}
				continue
			}
			if st.Version > fs.Version {
				t.Fatalf("tick %d: coarse version %d ahead of fine %d", at, st.Version, fs.Version)
			}
		}
	}
}

func TestRestrictSlices(t *testing.T) {
	w := testWorld(t)
	src, err := Observe(w, 0, perfectSpec(w.Points()), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	p := world.DomainPoint{Location: 0, Category: 0}
	micro := src.Restrict(w, []world.DomainPoint{p}, "micro")
	if micro.Name() != "micro" {
		t.Errorf("name = %q", micro.Name())
	}
	for _, e := range micro.Log().Events() {
		if w.Entity(e.Entity).Point != p {
			t.Fatalf("restricted source has entity from %v", w.Entity(e.Entity).Point)
		}
	}
	// The slice plus its complement partition the original log.
	other := src.Restrict(w, []world.DomainPoint{{Location: 1, Category: 0}}, "rest")
	if micro.Log().Len()+other.Log().Len() != src.Log().Len() {
		t.Error("slices do not partition the log")
	}
}

func TestDelayModelMeans(t *testing.T) {
	if (ConstantDelay{3}).Mean() != 3 {
		t.Error("ConstantDelay mean")
	}
	if (ExponentialDelay{Rate: 0.5}).Mean() != 2 {
		t.Error("ExponentialDelay mean")
	}
	g := stats.NewRNG(3)
	ln := LogNormalDelay{Mu: 0, Sigma: 0.5}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += ln.Sample(g)
	}
	if got, want := sum/n, ln.Mean(); got < want*0.95 || got > want*1.05 {
		t.Errorf("LogNormal sample mean %v vs analytic %v", got, want)
	}
}

func TestObserveRejectsBadSpec(t *testing.T) {
	w := testWorld(t)
	if _, err := Observe(w, 0, Spec{}, stats.NewRNG(1)); err == nil {
		t.Error("want validation error")
	}
}
