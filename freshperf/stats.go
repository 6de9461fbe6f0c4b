package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 needs 1,000 samples of its kind, a p90 100, a p50 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method, and whether at least minBeyond samples lie strictly beyond that
// rank. xs must be sorted ascending.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// median returns the median of xs without the tail rule (xs is copied and
// sorted; an empty slice gives 0).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported figure: its value, unit and the number of samples
// behind it (0 for counts and ratios).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report collects a run's metrics in print order, plus the names of
// percentiles reported from too few samples.
type report struct {
	metrics []metric
	thin    []string
}

func (r *report) add(name, unit string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

// addPercentiles reports the named percentiles of a latency sample in
// milliseconds, e.g. prefix "select" and qs {50, 99} give select_p50_ms and
// select_p99_ms. A percentile without minBeyond samples beyond it is still
// reported but recorded as thin.
func (r *report) addPercentiles(prefix string, xs []float64, qs ...int) {
	sort.Float64s(xs)
	for _, q := range qs {
		name := fmt.Sprintf("%s_p%d_ms", prefix, q)
		v, ok := percentile(xs, float64(q)/100)
		if !ok {
			r.thin = append(r.thin, fmt.Sprintf("%s from %d samples", name, len(xs)))
		}
		r.add(name, "ms", v, len(xs))
	}
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}
