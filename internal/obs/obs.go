// Package obs is a dependency-free observability layer for the selection
// pipeline: atomic counters, gauges, fixed-bucket latency histograms with
// quantile summaries, and lightweight spans, all backed by a process-global
// registry that can be snapshot, rendered as a table, dumped as JSON, and
// exported over expvar/pprof (see debug.go).
//
// The package is built around two rules:
//
//  1. Disabled means free. Telemetry is off until Enable() is called; all
//     package-level helpers then return nil handles, and every method on a
//     nil *Counter, *Gauge, *Histogram or zero Span is a no-op. The
//     disabled fast path is a single atomic load plus a nil check —
//     benchmarked at ~1–2 ns in bench_test.go — so hot paths stay
//     instrumented unconditionally.
//
//  2. Enabled means safe. All metric mutations are atomic; the registry is
//     safe for concurrent Counter/Gauge/Histogram lookups and Snapshot
//     calls from any number of goroutines (race-detector clean).
//
// Usage at an instrumentation site:
//
//	defer obs.Start("estimate.quality.seconds").End()
//	obs.Counter("selection.oracle.value_calls").Add(1)
//
// Names are dotted paths; histograms conventionally end in ".seconds".
package obs

import (
	"sync/atomic"
	"time"
)

// active holds the enabled registry, or nil when telemetry is off.
var active atomic.Pointer[Registry]

// Enable turns telemetry on, installing (and returning) the process-global
// registry. If telemetry is already on, the existing registry is returned.
func Enable() *Registry {
	for {
		if r := active.Load(); r != nil {
			return r
		}
		r := NewRegistry()
		if active.CompareAndSwap(nil, r) {
			return r
		}
	}
}

// Disable turns telemetry off. Handles already obtained keep working (they
// mutate the detached registry); new package-level lookups return nil
// no-op handles.
func Disable() { active.Store(nil) }

// Active returns the enabled registry, or nil when telemetry is off.
func Active() *Registry { return active.Load() }

// Enabled reports whether telemetry is on.
func Enabled() bool { return active.Load() != nil }

// Counter returns the named counter from the active registry, or a nil
// no-op handle when telemetry is off.
func Counter(name string) *CounterVar { return active.Load().Counter(name) }

// Gauge returns the named gauge from the active registry, or a nil no-op
// handle when telemetry is off.
func Gauge(name string) *GaugeVar { return active.Load().Gauge(name) }

// Histogram returns the named latency histogram (default buckets) from the
// active registry, or a nil no-op handle when telemetry is off.
func Histogram(name string) *HistogramVar { return active.Load().Histogram(name) }

// Span is an in-flight timed section. The zero Span is a no-op.
type Span struct {
	h  *HistogramVar
	t0 time.Time
}

// Start begins a span that, on End, records its duration in seconds into
// the named histogram. When telemetry is off it returns the zero Span and
// never calls time.Now.
func Start(name string) Span {
	r := active.Load()
	if r == nil {
		return Span{}
	}
	return Span{h: r.Histogram(name), t0: time.Now()}
}

// End finishes the span, observing the elapsed wall-clock seconds.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.t0).Seconds())
}

// EndWithCount finishes the span and additionally adds n to c — convenient
// for "did k units of work in this span" sites. Both are nil-safe.
func (s Span) EndWithCount(c *CounterVar, n int64) {
	s.End()
	c.Add(n)
}
