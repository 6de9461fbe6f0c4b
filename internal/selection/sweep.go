package selection

import (
	"context"
	"runtime"

	"freshsource/internal/obs"
)

// Options tunes how an algorithm runs; the zero value reproduces the
// historical sequential behavior exactly.
type Options struct {
	// Workers is the number of goroutines each candidate sweep fans move
	// evaluations across; 0 or 1 evaluates sequentially.
	Workers int
	// Ctx, when non-nil, lets a run be canceled between (and inside)
	// candidate sweeps; see Context.
	Ctx context.Context
}

// Option mutates Options.
type Option func(*Options)

// Parallel fans each round's candidate-move evaluations (adds, deletes,
// swaps) across the given number of workers; workers <= 0 sizes the
// fan-out to the smaller of GOMAXPROCS and the machine's CPU count. The
// sweeps are pure CPU work, so a GOMAXPROCS set above the cores that
// actually exist (common on capped containers) buys no overlap — only
// preemption churn between runnable workers fighting for the same core;
// on a single-core host the default therefore degrades to the sequential
// path exactly, which makes the parallel-slower-than-sequential inversion
// structurally impossible there. An explicit positive count is honored
// verbatim. The result is deterministic and identical to the sequential
// path either way: every move's value lands at a fixed index and the
// argmax reduction runs sequentially in the original scan order, so ties
// always resolve to the lowest-index move and oracle-call counts are
// unchanged. On the lazy (CELF) path only the full sweeps fan out; the
// stale re-probes between them stay sequential, so it too returns the same
// Result at any worker count.
//
// Parallel sweeps require the oracle's Value/Feasible (and ValueAdd, when
// implemented) to be safe for concurrent calls; Profit and CountingOracle
// are.
func Parallel(workers int) Option {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if n := runtime.NumCPU(); n < workers {
			workers = n
		}
	}
	return func(o *Options) { o.Workers = workers }
}

// Context makes the run cancelable: when ctx is canceled the algorithm
// abandons the sweep in flight, discards that sweep's partial results, and
// returns a Result whose Err is ErrCanceled and whose Set/Value hold the
// last fully-completed state (never a partially-reduced argmax). Without
// this option runs are uninterruptible, as historically.
func Context(ctx context.Context) Option {
	return func(o *Options) { o.Ctx = ctx }
}

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// evaluator runs candidate sweeps for one algorithm run.
type evaluator struct {
	workers int
	ctx     context.Context
	// pool holds the run's persistent sweep workers (nil on sequential
	// runs). Shared by every evaluator copy of the run; the owning
	// algorithm must call close on exit.
	pool *sweepPool
}

func newEvaluator(opts []Option) evaluator {
	o := buildOptions(opts)
	w := o.Workers
	if w < 1 {
		w = 1
	}
	ev := evaluator{workers: w, ctx: o.Ctx}
	if w > 1 {
		ev.pool = newSweepPool(w)
	}
	return ev
}

// close releases the run's sweep pool (a no-op on sequential runs). Every
// algorithm defers it on entry so the pool's helpers never outlive the
// run, finished or canceled.
func (e evaluator) close() { e.pool.close() }

// canceled reports whether the run's context (if any) has been canceled.
// Algorithms call it right after each sweep: a true return means that
// sweep's outputs are partial and must be discarded.
func (e evaluator) canceled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// cancelStride bounds how many sequential evaluations run between context
// checks; oracle evaluations dominate, so the check is amortized to noise.
const cancelStride = 32

// minMovesPerWorker is the adaptive fan-out floor: a sweep only engages
// the pool when it has at least this many moves per worker. Below the
// floor — short deletion sweeps, end-game rounds, tiny instances — the
// cross-goroutine handoff costs more than the moves themselves, which is
// exactly how the parallel path used to lose to sequential on small
// rounds; such sweeps run inline instead (and produce identical results,
// since the parallel path is deterministic anyway).
const minMovesPerWorker = 16

// sweep evaluates eval(i) for every i in [0, m), fanning across the
// evaluator's persistent pool when the sweep is wide enough to pay for
// the handoff (see minMovesPerWorker). eval must write its outcome to
// storage indexed by i (never shared across indices), which makes the
// sweep's result independent of evaluation order. Narrow sweeps and
// single-worker runs evaluate inline in index order. A canceled context
// stops the sweep early, leaving the remaining indices unevaluated —
// callers must check canceled() before reducing the outputs.
func (e evaluator) sweep(m int, eval func(i int)) {
	if e.pool != nil && m >= e.workers*minMovesPerWorker {
		if obs.Enabled() {
			obs.Counter("selection.sweep.parallel_batches").Inc()
			obs.Counter("selection.sweep.parallel_moves").Add(int64(m))
		}
		e.pool.run(m, e.ctx, eval)
		return
	}
	for i := 0; i < m; i++ {
		if e.ctx != nil && i%cancelStride == 0 && e.ctx.Err() != nil {
			return
		}
		eval(i)
	}
}
