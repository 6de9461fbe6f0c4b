package selection

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"freshsource/internal/matroid"
	"freshsource/internal/obs"
	"freshsource/internal/stats"
)

// cancelAfter cancels the bound context on its limit-th Value evaluation,
// simulating a deadline firing mid-run. Safe for concurrent sweeps.
type cancelAfter struct {
	inner  Oracle
	cancel context.CancelFunc
	limit  int64
	calls  atomic.Int64
}

func (o *cancelAfter) Value(set []int) float64 {
	if o.calls.Add(1) == o.limit {
		o.cancel()
	}
	return o.inner.Value(set)
}

func (o *cancelAfter) Feasible(set []int) bool { return o.inner.Feasible(set) }

// runAllCtx mirrors runAll with a context option attached.
func runAllCtx(f Oracle, n int, ctx context.Context, extra ...Option) []Result {
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i / 2
	}
	pm, err := matroid.OnePerClass(classOf)
	if err != nil {
		panic(err)
	}
	opts := append([]Option{Context(ctx)}, extra...)
	return []Result{
		Greedy(f, n, opts...),
		MaxSub(f, n, 0.05, opts...),
		MatroidMax(f, n, []matroid.Matroid{pm}, 0.05, opts...),
		GRASP(f, n, 3, 5, stats.NewRNG(42), opts...),
		Greedy(lazy(f), n, opts...),
		BudgetedGreedy(f, n, func(i int) float64 { return float64(i%4) + 1 }, opts...),
		MaxSub(lazy(f), n, 0.05, opts...),
	}
}

// TestContextNoopWhenUncanceled pins that attaching a live context changes
// nothing: same sets, bit-identical values, identical oracle-call counts.
func TestContextNoopWhenUncanceled(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		o := randomWC(24, seed)
		plain := runAll(o, 24)
		withCtx := runAllCtx(o, 24, context.Background())
		requireIdentical(t, "live-context", plain, withCtx)
		for i, r := range withCtx {
			if r.Err != nil {
				t.Errorf("%s: unexpected Err %v under a live context", algNames[i], r.Err)
			}
		}
	}
}

// TestPreCanceledContext pins the fast-exit path: a context canceled before
// the run starts yields ErrCanceled with at most the empty-set evaluation.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := randomWC(24, 1)
	for i, r := range runAllCtx(o, 24, ctx) {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("%s: Err = %v, want ErrCanceled", algNames[i], r.Err)
		}
		if len(r.Set) != 0 {
			t.Errorf("%s: pre-canceled run selected %v", algNames[i], r.Set)
		}
	}
}

// TestCancelMidRunConsistency is the no-partial-argmax invariant: however a
// cancellation lands relative to a sweep, the returned Set and Value form a
// consistent pair — Value is the oracle's exact value of Set — and the run
// reports ErrCanceled unless it finished first.
func TestCancelMidRunConsistency(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, limit := range []int64{1, 2, 5, 17, 60, 250} {
			plain := randomWC(24, seed)
			for alg := range algNames {
				ctx, cancel := context.WithCancel(context.Background())
				o := &cancelAfter{inner: plain, cancel: cancel, limit: limit}
				res := runAlgCtx(alg, o, 24, ctx)
				cancel()
				if res.Err != nil && !errors.Is(res.Err, ErrCanceled) {
					t.Fatalf("%s limit=%d: Err = %v", algNames[alg], limit, res.Err)
				}
				if got, want := res.Value, plain.Value(res.Set); got != want {
					t.Errorf("%s limit=%d: Value %v inconsistent with f(Set)=%v (set %v, err %v)",
						algNames[alg], limit, got, want, res.Set, res.Err)
				}
			}
		}
	}
}

// TestCancelMidRunParallel exercises cancellation against the parallel sweep
// engine (workers observe the context between move pulls) under the race
// detector, for every algorithm. At 64 candidates each algorithm's first
// sweep is wide enough for Parallel(2) to reach the pool, which the
// selection.sweep.parallel_batches counter confirms.
func TestCancelMidRunParallel(t *testing.T) {
	obs.Enable()
	batches := obs.Counter("selection.sweep.parallel_batches")
	const n = 64
	plain := randomWC(n, 7)
	for _, limit := range []int64{3, 40, 400} {
		for alg := range algNames {
			ctx, cancel := context.WithCancel(context.Background())
			o := &cancelAfter{inner: plain, cancel: cancel, limit: limit}
			before := batches.Value()
			res := runAlgCtx(alg, o, n, ctx, Parallel(2))
			cancel()
			if res.Err != nil && !errors.Is(res.Err, ErrCanceled) {
				t.Fatalf("%s limit=%d: Err = %v", algNames[alg], limit, res.Err)
			}
			if got, want := res.Value, plain.Value(res.Set); got != want {
				t.Errorf("%s limit=%d: Value %v inconsistent with f(Set)=%v", algNames[alg], limit, got, want)
			}
			if batches.Value() == before {
				t.Errorf("%s limit=%d: no sweep reached the pool", algNames[alg], limit)
			}
		}
	}
}

// runAlgCtx runs the alg-th algorithm of the runAll order individually so
// each gets a fresh cancel oracle; extra options follow the context.
func runAlgCtx(alg int, f Oracle, n int, ctx context.Context, extra ...Option) Result {
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i / 2
	}
	pm, err := matroid.OnePerClass(classOf)
	if err != nil {
		panic(err)
	}
	opts := append([]Option{Context(ctx)}, extra...)
	switch alg {
	case 0:
		return Greedy(f, n, opts...)
	case 1:
		return MaxSub(f, n, 0.05, opts...)
	case 2:
		return MatroidMax(f, n, []matroid.Matroid{pm}, 0.05, opts...)
	case 3:
		return GRASP(f, n, 3, 5, stats.NewRNG(42), opts...)
	case 4:
		return Greedy(lazy(f), n, opts...)
	case 5:
		return BudgetedGreedy(f, n, func(i int) float64 { return float64(i%4) + 1 }, opts...)
	case 6:
		return MaxSub(lazy(f), n, 0.05, opts...)
	}
	panic("bad alg")
}
