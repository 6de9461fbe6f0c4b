package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testShape() queryShape {
	return queryShape{names: queryNames(), nsrc: querySources, window: []int64{16, 17, 18, 19, 20, 21}}
}

// streamBytes renders pre plus the first n requests of s, one per line.
func streamBytes(s *stream, pre []op, n int) []byte {
	var b bytes.Buffer
	write := func(o op) { fmt.Fprintf(&b, "%s %s %s %t\n", o.kind, o.tenant, o.body, o.check) }
	for _, o := range pre {
		write(o)
	}
	for i := 0; i < n; i++ {
		write(s.take())
	}
	return b.Bytes()
}

var generators = map[string]func(seed int64) []byte{
	"query-miss": func(seed int64) []byte {
		g := newMissGen(seed, testShape())
		return streamBytes(&stream{next: g.next}, g.preflight(), 2000)
	},
	"query-hot": func(seed int64) []byte {
		ks := newHotKeys(seed, testShape())
		return streamBytes(newZipfStream(seed, ks, hotZipf), ks.all(), 2000)
	},
	"ingest": func(seed int64) []byte {
		ks := newFeedKeys(seed)
		return streamBytes(newZipfStream(seed, ks, feedZipf), ks.all(), 2000)
	},
}

func TestStreamsDeterministic(t *testing.T) {
	for name, gen := range generators {
		a, b, c := gen(1), gen(1), gen(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", name)
		}
	}
}

func TestMissKeysUnique(t *testing.T) {
	g := newMissGen(7, testShape())
	ops := g.preflight()
	for i := 0; i < 20000; i++ {
		ops = append(ops, g.next())
	}
	seen := map[string]bool{}
	freq := 0
	for _, o := range ops {
		key := o.kind + " " + o.tenant + " " + string(o.body)
		if seen[key] {
			t.Fatalf("duplicate key %s", key)
		}
		seen[key] = true
		if strings.HasSuffix(o.class, "-freq") {
			freq++
			if !reflect.DeepEqual(o.sel.Divisors, freqDivisors) {
				t.Fatalf("%s select without divisors: %s", o.class, o.body)
			}
		}
		for _, field := range []string{"workers", "cache", "lazy"} {
			if bytes.Contains(o.body, []byte(`"`+field+`"`)) {
				t.Fatalf("request carries %q: %s", field, o.body)
			}
		}
	}
	if freq == 0 {
		t.Fatal("no frequency-variant selects")
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(xs[:c.n], c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	var r report
	r.addPercentiles("select", append([]float64(nil), xs[:999]...), 50, 99)
	if len(r.thin) != 1 || !strings.HasPrefix(r.thin[0], "select_p99_ms") {
		t.Errorf("thin = %v, want only select_p99_ms", r.thin)
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	names = nil
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q, harness reports %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end_to_end %v, harness reports %v", names, endToEnd)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, harness reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, harness reports %+v", i, m, want)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "pipeline"},
		{"--workload", "ingest", "--trace", "2"},
		{"--workload", "ingest", "--seconds", "0"},
	} {
		if code := runMain(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for bad flags: %s", out.String())
	}
}

// TestSmoke runs every workload for two seconds with the traced replay,
// through every check the real runs make; only percentiles from too few
// samples are tolerated.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs each workload for seconds")
	}
	reached := map[string][]string{
		"query-miss": {"core.solve_ms.lazygreedy-freq", "selection.oracle_calls.lazygreedy", "gain.probe_us", "serve.problem_ms", "estimate.quality_ms"},
		"query-hot":  {"gate.rank_us", "gate.hop_ms", "serve.lookup_us", "serve.result_hit_ratio"},
		"ingest":     {"ingest.commit_ms", "ingest.submit_us", "estimate.advance_ms", "ingest.append_ms", "modelcache.digest_ms", "serve.rewarm_misses_per_commit"},
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var out bytes.Buffer
			cfg := config{workload: w, seed: 3, seconds: 2 * time.Second, trace: true, workdir: t.TempDir(), smoke: true}
			res, err := runWorkload(context.Background(), cfg, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("run not correct:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "match the cold-path reference") {
				t.Errorf("no output check reported:\n%s", out.String())
			}
			for _, name := range endToEnd {
				if !strings.Contains(out.String(), "  "+name+" ") {
					t.Errorf("report lacks %s", name)
				}
			}
			for _, name := range perLayerNames() {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("result lacks %s", name)
				}
			}
			for _, name := range reached[w] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0 on %s", name, res.Metrics[name].Value, w)
				}
			}
		})
	}
}
