package selection

import (
	"sync"
	"testing"

	"freshsource/internal/obs"
)

// dumbOracle deliberately implements nothing but the Oracle interface — no
// Calls() — to prove the algorithms count evaluations themselves.
type dumbOracle struct{ vals map[int]float64 }

func (o dumbOracle) Value(set []int) float64 {
	var v float64
	for _, x := range set {
		v += o.vals[x]
	}
	return v
}

func (o dumbOracle) Feasible([]int) bool { return true }

func TestCountingWithoutOracleCounter(t *testing.T) {
	// Before the CountingOracle wrapper, a counter-less oracle reported
	// OracleCalls == 0; now every algorithm counts exactly.
	o := dumbOracle{vals: map[int]float64{0: 1, 1: 0.5, 2: 0.25}}
	for name, r := range map[string]Result{
		"greedy":      Greedy(o, 3),
		"maxsub":      MaxSub(o, 3, 0.1),
		"greedy/lazy": Greedy(lazy(o), 3),
		"maxsub/lazy": MaxSub(lazy(o), 3, 0.1),
	} {
		if r.OracleCalls <= 0 {
			t.Errorf("%s: OracleCalls = %d, want > 0 for a counter-less oracle", name, r.OracleCalls)
		}
	}
}

func TestCountIdempotent(t *testing.T) {
	o := dumbOracle{vals: map[int]float64{0: 1}}
	c := Count(o)
	if Count(c) != c {
		t.Error("Count of a CountingOracle should return it unchanged")
	}
}

// feasibleChecks reads the telemetry counter CountingOracle feeds on every
// Feasible check.
func feasibleChecks() int64 { return obs.Counter("selection.oracle.feasible_calls").Value() }

func TestCountingOracleCounts(t *testing.T) {
	obs.Enable()
	o := dumbOracle{vals: map[int]float64{0: 1}}
	c := Count(o)
	feasible0 := feasibleChecks()
	c.Value(nil)
	c.Value([]int{0})
	c.Feasible([]int{0})
	if c.Calls() != 2 {
		t.Errorf("Calls = %d, want 2", c.Calls())
	}
	if got := feasibleChecks() - feasible0; got != 1 {
		t.Errorf("feasible_calls rose by %d, want 1", got)
	}
}

func TestCountingOracleConcurrent(t *testing.T) {
	obs.Enable()
	o := dumbOracle{vals: map[int]float64{0: 1}}
	c := Count(o)
	feasible0 := feasibleChecks()
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Value([]int{0})
				c.Feasible([]int{0})
			}
		}()
	}
	wg.Wait()
	if c.Calls() != goroutines*perG {
		t.Errorf("Calls = %d, want %d", c.Calls(), goroutines*perG)
	}
	if got := feasibleChecks() - feasible0; got != goroutines*perG {
		t.Errorf("feasible_calls rose by %d, want %d", got, goroutines*perG)
	}
}

func TestNestedDeltaAccounting(t *testing.T) {
	// MatroidMax shares one CountingOracle with its nested local searches;
	// a pre-warmed count must not leak into the reported delta.
	o := dumbOracle{vals: map[int]float64{0: 1, 1: 0.5}}
	c := Count(o)
	for i := 0; i < 17; i++ {
		c.Value(nil) // pre-existing calls before the run
	}
	r := Greedy(c, 2)
	if r.OracleCalls >= c.Calls() {
		t.Errorf("delta accounting broken: run reported %d of %d total calls",
			r.OracleCalls, c.Calls())
	}
	if r.OracleCalls <= 0 {
		t.Errorf("OracleCalls = %d, want > 0", r.OracleCalls)
	}
}
