package obs

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition format
// emitted by WritePrometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), so a long-running daemon's /metrics is scrapeable
// rather than dump-on-exit only:
//
//   - counters become `# TYPE name counter` series;
//   - gauges become `# TYPE name gauge` series;
//   - histograms become full `# TYPE name histogram` families — cumulative
//     `name_bucket{le="..."}` series over every configured bound (empty
//     buckets included, closed by le="+Inf"), plus `name_sum` and
//     `name_count` — followed by precomputed `name_p50/_p95/_p99` quantile
//     gauges, since the fixed-bucket quantile estimate here interpolates
//     within the observed [min, max] and is tighter than what a scraper
//     would recompute from the buckets alone.
//
// Dotted metric names are sanitized to the Prometheus charset (dots and
// any other invalid byte become '_'). Output is deterministic: families
// are emitted in sorted name order.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, k := range sortedKeys(s.Counters) {
		name := sanitizeMetricName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := sanitizeMetricName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Gauges[k])); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		if err := writePromHistogram(w, sanitizeMetricName(k), s.Histograms[k]); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h HistogramSummary) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count); err != nil {
		return err
	}
	for _, q := range []struct {
		suffix string
		v      float64
	}{{"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}} {
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %s\n",
			name, q.suffix, name, q.suffix, promFloat(q.v)); err != nil {
			return err
		}
	}
	return nil
}

// promFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with exponents where shorter.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps a dotted obs name onto the Prometheus metric
// charset [a-zA-Z0-9_:]; every other byte becomes '_'. A leading digit is
// prefixed with '_' (metric names must not start with a digit).
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// CaptureRuntime refreshes the process-level gauges on the registry from
// the Go runtime: goroutine count, heap occupancy and the cumulative
// allocation counters. Serving code calls it right before a snapshot so
// /metrics always reports current process state. Nil-safe, like every
// registry method.
func CaptureRuntime(r *Registry) {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("proc.goroutines").Set(float64(runtime.NumGoroutine()))
	r.Gauge("proc.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	r.Gauge("proc.sys_bytes").Set(float64(ms.Sys))
	r.Gauge("proc.mallocs").Set(float64(ms.Mallocs))
	r.Gauge("proc.total_alloc_bytes").Set(float64(ms.TotalAlloc))
	r.Gauge("proc.gc_cycles").Set(float64(ms.NumGC))
}

// ValidatePrometheus structurally checks a text-exposition document: every
// non-empty line is either a `# TYPE`/`# HELP` comment or a
// `name[{labels}] value` sample with a sanitized metric name and a
// parseable float value. It returns the number of samples. Tests use it as
// a zero-dependency stand-in for a real Prometheus scraper.
func ValidatePrometheus(doc string) (samples int, err error) {
	for ln, line := range strings.Split(doc, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "# ")
			if !strings.HasPrefix(rest, "TYPE ") && !strings.HasPrefix(rest, "HELP ") {
				return samples, fmt.Errorf("line %d: unknown comment %q", ln+1, line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return samples, fmt.Errorf("line %d: no sample value in %q", ln+1, line)
		}
		series, value := line[:sp], line[sp+1:]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return samples, fmt.Errorf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = series[:i]
		}
		if name == "" || sanitizeMetricName(name) != name {
			return samples, fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
		}
		if _, ferr := strconv.ParseFloat(value, 64); ferr != nil {
			return samples, fmt.Errorf("line %d: bad sample value %q", ln+1, value)
		}
		samples++
	}
	return samples, nil
}
