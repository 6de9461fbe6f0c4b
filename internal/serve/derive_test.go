package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"freshsource/internal/core"
	"freshsource/internal/estimate"
	"freshsource/internal/gain"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// ingestServer returns an ingest server after two committed epochs, so its
// serving generation is a seeded refit over extended sources.
func ingestServer(t *testing.T) *Server {
	t.Helper()
	srv := newServer(t, ingestConfig(""))
	t0 := int64(testDataset(t).T0)
	for _, batch := range [][]ObserveEvent{
		{ev(0, 3, t0+4, "appear", 0), ev(2, 5, t0+9, "update", 2)},
		{ev(1, 7, t0+12, "appear", 0), ev(3, 5, t0+15, "update", 3)},
	} {
		if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(batch...)); rec.Code != http.StatusAccepted {
			t.Fatalf("observe: %d %s", rec.Code, rec.Body.String())
		}
		if info, err := srv.CommitTenantEpoch(context.Background(), ""); err != nil || info == nil {
			t.Fatalf("commit: %+v, %v", info, err)
		}
	}
	return srv
}

// postOK posts body to path and returns the response body, failing the
// test on any status but 200.
func postOK(t *testing.T, srv *Server, path, body string) []byte {
	t.Helper()
	rec := postJSON(t, srv.Handler(), path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// coldSelect is the /v1/select body of a cold solve over tr with the
// request defaults (linear coverage gain, κ=5, seed 1) and GRASP's r=2.
func coldSelect(t *testing.T, tr *core.Trained, ticks []timeline.Tick, g gain.Function, alg core.Algorithm, budget float64) []byte {
	t.Helper()
	prob, err := core.NewProblem(tr, ticks, g, core.ProblemOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := prob.SolveContext(context.Background(), alg, core.SolveOptions{Kappa: 5, Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp := SelectResponse{
		Algorithm: string(sel.Algorithm), Set: emptyNotNil(sel.Set), Names: emptyNotNil(sel.Names),
		Divisors: emptyNotNil(sel.Divisors), Profit: sel.Profit, Gain: sel.Gain,
		AvgCoverage: sel.AvgCoverage, AvgAccuracy: sel.AvgAccuracy, OracleCalls: sel.OracleCalls,
		Ticks: make([]int64, len(ticks)),
	}
	for i, tk := range ticks {
		resp.Ticks[i] = int64(tk)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// coldQuality is the /v1/quality body of set over tr at ticks.
func coldQuality(t *testing.T, tr *core.Trained, set []int, ticks []timeline.Tick) []byte {
	t.Helper()
	qs := tr.Est.QualityMultiState(tr.Est.NewSetState(set), ticks)
	resp := QualityResponse{Set: set, Ticks: make([]int64, len(ticks)), Points: make([]QualityPoint, len(qs))}
	for k, q := range qs {
		resp.Ticks[k] = int64(ticks[k])
		resp.Points[k] = QualityPoint{
			Tick: int64(ticks[k]), Coverage: q.Coverage, LocalFreshness: q.LocalFreshness,
			GlobalFreshness: q.GlobalFreshness, Accuracy: q.Accuracy,
			ExpectedOmega: q.ExpectedOmega, ExpectedSize: q.ExpectedSize,
		}
		resp.AvgCoverage += q.Coverage
		resp.AvgAccuracy += q.Accuracy
	}
	resp.AvgCoverage /= float64(len(qs))
	resp.AvgAccuracy /= float64(len(qs))
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestDivisorListsMatchColdFit pins the derivation contract: a divisor
// list served from a generation's one base fit answers exactly the bytes
// of a cold fit with those divisors over the generation's dataset, on a
// snapshot tenant and on an ingest tenant past two epochs; and deriving
// lists leaves every no-divisor answer as it was.
func TestDivisorListsMatchColdFit(t *testing.T) {
	algs := []core.Algorithm{core.Greedy, core.MaxSub, core.GRASP, core.Budgeted}
	for name, srv := range map[string]*Server{"snapshot": newServer(t, Config{}), "ingest": ingestServer(t)} {
		t.Run(name, func(t *testing.T) {
			defer srv.Close()
			gen := srv.current()
			ticks := SpreadTicks(gen.d.T0, gen.d.Horizon(), 10)
			g := gain.Linear{Metric: gain.Coverage}
			n := len(gen.d.Sources)
			plainSet := `{"set":[0,2,5]}`
			// plain serves every no-divisor request afresh: the result cache
			// is emptied first, so each answer is recomputed from the base.
			plain := func() [][]byte {
				gen.reg.mu.Lock()
				gen.reg.results = make(map[string][]byte)
				gen.reg.mu.Unlock()
				var out [][]byte
				for _, alg := range algs {
					out = append(out, postOK(t, srv, "/v1/select", fmt.Sprintf(`{"algorithm":%q,"budget":0.5,"rounds":2}`, alg)))
				}
				return append(out, postOK(t, srv, "/v1/quality", plainSet))
			}
			before := plain()

			for _, divs := range [][]int{{2}, {2, 3}, {3, 2}} {
				cold, err := core.TrainContext(context.Background(), gen.d.World, gen.d.Sources, gen.d.T0, core.TrainOptions{FreqDivisors: divs})
				if err != nil {
					t.Fatal(err)
				}
				dj, _ := json.Marshal(divs)
				for _, alg := range algs {
					budget := 0.0
					if alg == core.Budgeted {
						budget = 0.5
					}
					got := postOK(t, srv, "/v1/select", fmt.Sprintf(`{"algorithm":%q,"divisors":%s,"budget":%g,"rounds":2}`, alg, dj, budget))
					if want := coldSelect(t, cold, ticks, g, alg, budget); !bytes.Equal(got, want) {
						t.Errorf("%v %s: served %s\nwant %s", divs, alg, got, want)
					}
				}
				set := []int{1, n + 2, 2*n - 1, 4}
				sj, _ := json.Marshal(set)
				got := postOK(t, srv, "/v1/quality", fmt.Sprintf(`{"set":%s,"divisors":%s}`, sj, dj))
				if want := coldQuality(t, cold, set, ticks); !bytes.Equal(got, want) {
					t.Errorf("%v quality: served %s\nwant %s", divs, got, want)
				}
			}

			for i, body := range plain() {
				if !bytes.Equal(body, before[i]) {
					t.Errorf("no-divisor answer %d changed after divisor requests:\n got %s\nwant %s", i, body, before[i])
				}
			}
		})
	}
}

// TestDivisorRequestRunsNoFit: on a fitted generation a divisor request
// derives its model set from the base fit. It records no statistical fit
// and no model-cache load, whether the base came from the model cache or
// from an ingest epoch.
func TestDivisorRequestRunsNoFit(t *testing.T) {
	for name, srv := range map[string]*Server{
		"modelcache": newServer(t, Config{ModelCacheDir: t.TempDir()}),
		"ingest":     ingestServer(t),
	} {
		t.Run(name, func(t *testing.T) {
			defer srv.Close()
			fits := obs.Active().Histogram("estimate.fit.seconds")
			loads := obs.Active().Histogram("modelcache.load.seconds")
			fits0, loads0 := fits.Count(), loads.Count()
			postOK(t, srv, "/v1/select", `{"divisors":[2]}`)
			postOK(t, srv, "/v1/select", `{"algorithm":"greedy","divisors":[3,2]}`)
			postOK(t, srv, "/v1/quality", `{"set":[0,12],"divisors":[2,3]}`)
			if got := fits.Count() - fits0; got != 0 {
				t.Errorf("divisor requests ran %d statistical fits, want 0", got)
			}
			if got := loads.Count() - loads0; got != 0 {
				t.Errorf("divisor requests loaded the model cache %d times, want 0", got)
			}
		})
	}
}

// TestDerivedEntriesConcurrent: divisor entries requested at once with the
// base on a cold registry all wait on its one fit, and quality reads
// through the base and the derived estimators at the same time match cold
// fits — a derived estimator only reads what it shares with the base.
func TestDerivedEntriesConcurrent(t *testing.T) {
	d := testDataset(t)
	reg := NewRegistry(context.Background(), d, 64, 0, nil)
	defer reg.Close()
	ticks := SpreadTicks(d.T0, d.Horizon(), 4)
	set := []int{0, 3, len(d.Sources) + 1}
	lists := [][]int{nil, {2}, {2, 3}, {3, 2}}
	want := make([][]estimate.QualityEstimate, len(lists))
	for i, divs := range lists {
		cold, err := core.TrainContext(context.Background(), d.World, d.Sources, d.T0, core.TrainOptions{FreqDivisors: divs})
		if err != nil {
			t.Fatal(err)
		}
		if divs != nil {
			want[i] = cold.Est.QualityMulti(set, ticks)
		} else {
			want[i] = cold.Est.QualityMulti(set[:2], ticks)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 3*len(lists); g++ {
		i := g % len(lists)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := reg.Trained(context.Background(), lists[i])
			if err != nil {
				t.Errorf("%v: %v", lists[i], err)
				return
			}
			s := set
			if lists[i] == nil {
				s = set[:2]
			}
			if got := tr.Est.QualityMultiState(tr.Est.NewSetState(s), ticks); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%v: concurrent quality %v, want %v", lists[i], got, want[i])
			}
		}()
	}
	wg.Wait()
}

// TestFlushKeepsBase: an epoch flush drops divisor entries but never the
// base, so flushed lists re-derive from the same fit without refitting.
func TestFlushKeepsBase(t *testing.T) {
	obs.Enable()
	ctx := context.Background()
	reg := NewRegistry(ctx, testDataset(t), 1, 0, nil)
	defer reg.Close()
	base, err := reg.Trained(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	fits := obs.Active().Histogram("estimate.fit.seconds")
	fits0, evictions0 := fits.Count(), counter("serve.registry.evictions")
	for _, divs := range [][]int{{2}, {3}, {2}} {
		if _, err := reg.Trained(ctx, divs); err != nil {
			t.Fatalf("%v: %v", divs, err)
		}
	}
	if got := counter("serve.registry.evictions") - evictions0; got != 3 {
		t.Errorf("evictions delta = %d, want 3 (one flush per new list at bound 1)", got)
	}
	if got, err := reg.Trained(ctx, nil); err != nil || got != base {
		t.Errorf("base after flushes: %p, %v; want the original %p", got, err, base)
	}
	if got := fits.Count() - fits0; got != 0 {
		t.Errorf("flushes refit the base %d times", got)
	}
}
