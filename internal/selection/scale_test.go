package selection

import (
	"reflect"
	"testing"
)

// requireSameRun asserts two Results from the same algorithm are fully
// identical: set, bit-identical value and exact oracle-call count.
func requireSameRun(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Set, got.Set) {
		t.Errorf("%s: set %v != %v", label, got.Set, want.Set)
	}
	if want.Value != got.Value {
		t.Errorf("%s: value %v != %v (not bit-identical)", label, got.Value, want.Value)
	}
	if want.OracleCalls != got.OracleCalls {
		t.Errorf("%s: oracle calls %d != %d", label, got.OracleCalls, want.OracleCalls)
	}
}

// TestScaleDeterminism pins the CELF contract at a paper-ish candidate
// count on an integer-weighted coverage fixture: Greedy's lazy path
// returns exactly its full scan's selection — same set, bit-identical
// value — with strictly fewer oracle calls. Both paths are then
// byte-identical across worker counts 1/2/4/8, OracleCalls included.
// -short trims the instance so the -race run stays cheap.
func TestScaleDeterminism(t *testing.T) {
	n := 1200
	if testing.Short() {
		n = 300
	}
	plain := randomWC(n, 17)
	// Cap the selection depth: the interesting regime is many candidates
	// competing for few slots, not ingesting a third of the corpus.
	plain.maxSet = 24
	o := &incrWC{wcOracle: *plain}

	greedy := Greedy(o, n)
	if len(greedy.Set) == 0 {
		t.Fatal("greedy selected nothing")
	}
	celf := Greedy(lazy(o), n)
	requireSameSelection(t, "celf vs full scan", greedy, celf)
	if celf.OracleCalls >= greedy.OracleCalls {
		t.Errorf("celf spent %d oracle calls, want fewer than the full scan's %d",
			celf.OracleCalls, greedy.OracleCalls)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		requireSameRun(t, "greedy across workers", greedy, Greedy(o, n, Parallel(workers)))
		requireSameRun(t, "celf across workers", celf, Greedy(lazy(o), n, Parallel(workers)))
	}
}

// requireSameSelection asserts got selects exactly want's set with a
// bit-identical value (oracle-call counts may differ — CELF against the
// full scan).
func requireSameSelection(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Set, got.Set) {
		t.Errorf("%s: set %v != %v", label, got.Set, want.Set)
	}
	if want.Value != got.Value {
		t.Errorf("%s: value %v != %v (not bit-identical)", label, got.Value, want.Value)
	}
}
