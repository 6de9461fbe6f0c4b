package matroid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartition(t *testing.T) {
	// Elements 0,1,2 in class 0 (cap 1); 3,4 in class 1 (cap 2).
	p, err := NewPartition([]int{0, 0, 0, 1, 1}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Independent([]int{0, 3, 4}) {
		t.Error("{0,3,4} should be independent")
	}
	if p.Independent([]int{0, 1}) {
		t.Error("two class-0 elements should be dependent")
	}
	if p.Independent([]int{3, 3}) {
		t.Error("duplicate elements are not a set")
	}
	if p.Independent([]int{5}) {
		t.Error("out-of-range element")
	}
	if !p.CanAdd([]int{0}, 3) {
		t.Error("adding to unfilled class must work")
	}
	if p.CanAdd([]int{0}, 1) {
		t.Error("class 0 is full")
	}
	if c := p.Conflicts([]int{0, 3}, 1); len(c) != 1 || c[0] != 0 {
		t.Errorf("conflicts = %v, want [0]", c)
	}
	if p.ClassOf(4) != 1 {
		t.Error("ClassOf wrong")
	}
}

func TestNewPartitionErrors(t *testing.T) {
	if _, err := NewPartition([]int{0, 5}, []int{1}); err == nil {
		t.Error("want invalid-class error")
	}
	if _, err := NewPartition([]int{0}, []int{-1}); err == nil {
		t.Error("want negative-capacity error")
	}
}

func TestOnePerClass(t *testing.T) {
	// 2 sources × 3 versions: candidates 0-2 are source 0, 3-5 source 1.
	p, err := OnePerClass([]int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Independent([]int{0, 4}) {
		t.Error("one version per source should be independent")
	}
	if p.Independent([]int{0, 1}) {
		t.Error("two versions of one source should be dependent")
	}
}

func TestAllIndependent(t *testing.T) {
	p, _ := OnePerClass([]int{0, 0, 1, 1})
	// One class of capacity 1: at most one element overall.
	q, _ := NewPartition([]int{0, 0, 0, 0}, []int{1})
	ms := []Matroid{p, q}
	if !AllIndependent(ms, []int{0}) {
		t.Error("singleton should be in the intersection")
	}
	if AllIndependent(ms, []int{0, 2}) {
		t.Error("{0,2} violates the rank-1 constraint")
	}
}

// Property: downward closure — every subset of an independent set is
// independent (matroid axiom I2).
func TestQuickDownwardClosure(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		classOf := make([]int, n)
		nClasses := 1 + r.Intn(4)
		for i := range classOf {
			classOf[i] = r.Intn(nClasses)
		}
		capacity := make([]int, nClasses)
		for i := range capacity {
			capacity[i] = 1 + r.Intn(2)
		}
		p, err := NewPartition(classOf, capacity)
		if err != nil {
			return false
		}
		var set []int
		for x := 0; x < n; x++ {
			if r.Intn(2) == 0 && p.CanAdd(set, x) {
				set = append(set, x)
			}
		}
		if !p.Independent(set) {
			return false
		}
		// Remove a random element: still independent.
		if len(set) > 0 {
			i := r.Intn(len(set))
			sub := append(append([]int{}, set[:i]...), set[i+1:]...)
			if !p.Independent(sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: exchange axiom (I3) for partition matroids — if |A| < |B|, both
// independent, then some b ∈ B\A keeps A+b independent.
func TestQuickExchangeAxiom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		classOf := make([]int, n)
		nClasses := 1 + r.Intn(3)
		for i := range classOf {
			classOf[i] = r.Intn(nClasses)
		}
		capacity := make([]int, nClasses)
		for i := range capacity {
			capacity[i] = 1 + r.Intn(3)
		}
		p, err := NewPartition(classOf, capacity)
		if err != nil {
			return false
		}
		build := func() []int {
			var s []int
			for _, x := range r.Perm(n) {
				if r.Intn(2) == 0 && p.CanAdd(s, x) {
					s = append(s, x)
				}
			}
			return s
		}
		a, b := build(), build()
		if len(a) >= len(b) {
			return true // precondition unmet; vacuous
		}
		for _, x := range b {
			inA := false
			for _, y := range a {
				if x == y {
					inA = true
					break
				}
			}
			if !inA && p.CanAdd(a, x) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
