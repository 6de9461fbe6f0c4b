package selection

import (
	"sync/atomic"
	"time"

	"freshsource/internal/obs"
)

// CountingOracle wraps an Oracle and counts every Value and Feasible
// evaluation explicitly, so call accounting never depends on the wrapped
// oracle volunteering a counter. Counts are atomic: a CountingOracle may
// be shared by concurrent algorithm runs.
//
// Every algorithm in this package wraps its oracle with Count on entry, so
// Result.OracleCalls is always exact — including for oracles that know
// nothing about counting.
type CountingOracle struct {
	inner    Oracle
	value    atomic.Int64
	feasible atomic.Int64

	// obs handles resolved at wrap time; nil (no-op) when telemetry is
	// disabled.
	obsValue    *obs.CounterVar
	obsFeasible *obs.CounterVar
}

// Count wraps f in a CountingOracle. Wrapping a CountingOracle returns it
// unchanged, so nested algorithm calls (e.g. MatroidMax running
// MatroidLocalSearch) share one running count and delta accounting stays
// exact.
func Count(f Oracle) *CountingOracle {
	if c, ok := f.(*CountingOracle); ok {
		return c
	}
	return &CountingOracle{
		inner:       f,
		obsValue:    obs.Counter("selection.oracle.value_calls"),
		obsFeasible: obs.Counter("selection.oracle.feasible_calls"),
	}
}

// Value implements Oracle, counting the evaluation.
func (c *CountingOracle) Value(set []int) float64 {
	c.value.Add(1)
	c.obsValue.Add(1)
	return c.inner.Value(set)
}

// Feasible implements Oracle, counting the check.
func (c *CountingOracle) Feasible(set []int) bool {
	c.feasible.Add(1)
	c.obsFeasible.Add(1)
	return c.inner.Feasible(set)
}

// IncrementalOracle is an Oracle that can probe single-candidate additions
// against cached set state — the access pattern of every greedy-style
// sweep. gain.Profit implements it by layering the candidate's signatures
// on cached unions instead of re-unioning the whole set.
type IncrementalOracle interface {
	Oracle
	// BeginAdd caches evaluation state for set; it may return nil to
	// decline (callers then fall back to full Value probes). The returned
	// state must be immutable: parallel sweeps issue concurrent ValueAdd
	// probes against it.
	BeginAdd(set []int) any
	// ValueAdd returns Value(set ∪ {x}) using the cached state, bit-identical
	// to the full evaluation. x must not be in the state's set.
	ValueAdd(state any, x int) float64
}

// tryBeginAdd returns add-probe state for set when the wrapped oracle
// supports incremental evaluation.
func (c *CountingOracle) tryBeginAdd(set []int) (any, bool) {
	io, ok := c.inner.(IncrementalOracle)
	if !ok {
		return nil, false
	}
	st := io.BeginAdd(set)
	if st == nil {
		return nil, false
	}
	return st, true
}

// valueAdd counts an incremental probe exactly like the Value evaluation
// it replaces, keeping OracleCalls identical across the two paths.
func (c *CountingOracle) valueAdd(state any, x int) float64 {
	c.value.Add(1)
	c.obsValue.Add(1)
	return c.inner.(IncrementalOracle).ValueAdd(state, x)
}

// Submodular forwards the wrapped oracle's SubmodularOracle report, so
// wrapping never hides (or invents) submodularity; oracles without the
// method report false.
func (c *CountingOracle) Submodular() bool {
	s, ok := c.inner.(SubmodularOracle)
	return ok && s.Submodular()
}

// Calls returns the number of Value evaluations so far.
func (c *CountingOracle) Calls() int { return int(c.value.Load()) }

// FeasibleCalls returns the number of Feasible checks so far.
func (c *CountingOracle) FeasibleCalls() int { return int(c.feasible.Load()) }

// Unwrap returns the wrapped oracle.
func (c *CountingOracle) Unwrap() Oracle { return c.inner }

// runTrace carries the per-run accounting every algorithm shares: the
// counting oracle, its call count at entry (for delta accounting under
// nesting), the wall-clock start, and the obs span timing the run.
type runTrace struct {
	co     *CountingOracle
	calls0 int
	start  time.Time
	span   obs.Span
	runs   *obs.CounterVar
}

// traceRun begins a run of the named algorithm: wraps the oracle and opens
// the "selection.<alg>.seconds" span.
func traceRun(f Oracle, alg string) (*CountingOracle, runTrace) {
	co := Count(f)
	return co, runTrace{
		co:     co,
		calls0: co.Calls(),
		start:  time.Now(),
		span:   obs.Start("selection." + alg + ".seconds"),
		runs:   obs.Counter("selection." + alg + ".runs"),
	}
}

// finish closes the run and assembles its Result.
func (rt runTrace) finish(set []int, value float64) Result {
	rt.span.End()
	rt.runs.Add(1)
	return Result{
		Set:         append([]int(nil), set...),
		Value:       value,
		OracleCalls: rt.co.Calls() - rt.calls0,
		Duration:    time.Since(rt.start),
	}
}

// finishErr closes a run that stopped early, recording err (ErrCanceled)
// alongside the last fully-completed state.
func (rt runTrace) finishErr(set []int, value float64, err error) Result {
	obs.Counter("selection.canceled").Inc()
	r := rt.finish(set, value)
	r.Err = err
	return r
}
