package selection

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"freshsource/internal/obs"
)

// TestSweepFanOutFloor pins the adaptive fan-out floor: a sweep with
// fewer than minMovesPerWorker moves per worker never engages the pool —
// no selection.sweep.parallel_batches increment, no helper goroutines —
// and still evaluates every move, so results are identical to the wide
// path by construction.
func TestSweepFanOutFloor(t *testing.T) {
	obs.Enable()
	batches := obs.Counter("selection.sweep.parallel_batches")

	ev := newEvaluator([]Option{Parallel(8)})
	defer ev.close()

	before := batches.Value()
	got := make([]int, 4)
	ev.sweep(4, func(i int) { got[i] = i + 1 })
	if delta := batches.Value() - before; delta != 0 {
		t.Errorf("4-move sweep at Parallel(8) recorded %d parallel batches, want 0 (inline below the floor)", delta)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("inline sweep outputs %v, want %v", got, want)
	}

	// A sweep at the floor fans out (and the pool, once started, is what
	// the parallel_batches counter observes).
	wide := make([]int, 8*minMovesPerWorker)
	before = batches.Value()
	ev.sweep(len(wide), func(i int) { wide[i] = 1 })
	if delta := batches.Value() - before; delta != 1 {
		t.Errorf("%d-move sweep at Parallel(8) recorded %d parallel batches, want 1", len(wide), delta)
	}
	for i, v := range wide {
		if v != 1 {
			t.Fatalf("pooled sweep skipped index %d", i)
		}
	}

	// And the algorithm-level contract: a 4-candidate instance at
	// Parallel(8) stays inline end to end and selects identically.
	o := randomWC(4, 3)
	seq := Greedy(o, 4)
	before = batches.Value()
	par := Greedy(o, 4, Parallel(8))
	if delta := batches.Value() - before; delta != 0 {
		t.Errorf("4-candidate Greedy at Parallel(8) recorded %d parallel batches, want 0", delta)
	}
	requireSameRun(t, "greedy under the fan-out floor", seq, par)
}

// TestSweepPoolPersists pins that one parallel run reuses a single set of
// pool helpers across all its sweeps (no per-round goroutine spawn) and
// shuts them down when the run finishes: after the run returns, the
// goroutine count settles back to the baseline.
func TestSweepPoolPersists(t *testing.T) {
	base := runtime.NumGoroutine()
	o := &incrWC{wcOracle: *randomWC(256, 11)}
	r := Greedy(o, 256, Parallel(4))
	if len(r.Set) == 0 {
		t.Fatal("greedy selected nothing")
	}
	// The deferred close fires before Greedy returns; helpers exit
	// asynchronously after quit closes, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("goroutines after run: %d, baseline %d — pool helpers leaked", got, base)
	}
}

// TestSweepPoolCloseIdempotent pins close semantics on every pool state.
func TestSweepPoolCloseIdempotent(t *testing.T) {
	var nilPool *sweepPool
	nilPool.close() // no-op on sequential runs

	p := newSweepPool(4)
	p.close() // never started

	p = newSweepPool(4)
	var n atomic.Int64
	p.run(200, nil, func(i int) { n.Add(1) })
	if n.Load() != 200 {
		t.Fatalf("pool evaluated %d of 200 moves", n.Load())
	}
	p.close()
	p.close() // idempotent
}
