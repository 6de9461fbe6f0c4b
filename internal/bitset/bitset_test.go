package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("new set count = %d, want 0", s.Count())
	}
	if s.Any() {
		t.Fatal("new set should not be Any")
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		s.Add(i)
	}
	for _, i := range idx {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if s.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(idx))
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if s.Count() != len(idx)-1 {
		t.Fatalf("Count = %d, want %d", s.Count(), len(idx)-1)
	}
	// Double add is idempotent.
	s.Add(0)
	if s.Count() != len(idx)-1 {
		t.Fatalf("double add changed count: %d", s.Count())
	}
	// Removing an absent element is a no-op.
	s.Remove(2)
	if s.Count() != len(idx)-1 {
		t.Fatalf("removing absent element changed count: %d", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, fn := range []func(s *Set){
		func(s *Set) { s.Add(-1) },
		func(s *Set) { s.Add(10) },
		func(s *Set) { s.Remove(10) },
		func(s *Set) { s.Contains(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range index")
				}
			}()
			fn(New(10))
		}()
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for universe mismatch")
		}
	}()
	New(10).UnionWith(New(11))
}

// union applies the in-place UnionWith to a clone of a, leaving both
// operands untouched.
func union(a, b *Set) *Set {
	u := a.Clone()
	u.UnionWith(b)
	return u
}

// intersect and difference build a ∩ b and a \ b element by element: a
// reference independent of the word-wise count kernels they check.
func intersect(a, b *Set) *Set {
	out := New(a.Len())
	a.ForEach(func(i int) {
		if b.Contains(i) {
			out.Add(i)
		}
	})
	return out
}

func difference(a, b *Set) *Set {
	out := New(a.Len())
	a.ForEach(func(i int) {
		if !b.Contains(i) {
			out.Add(i)
		}
	})
	return out
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(200, []int{1, 5, 70, 130, 199})
	b := FromIndices(200, []int{5, 6, 130, 150})

	u := union(a, b)
	want := FromIndices(200, []int{1, 5, 6, 70, 130, 150, 199})
	if !u.Equal(want) {
		t.Errorf("UnionWith = %v, want %v", u, want)
	}

	if got := IntersectCount(a, b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	// |a ∩ a \ b| = |a \ b| = |{1, 70, 199}|.
	if got := IntersectAndNotCount(a, a, b); got != 3 {
		t.Errorf("IntersectAndNotCount(a, a, b) = %d, want 3", got)
	}
}

func TestSubset(t *testing.T) {
	a := FromIndices(100, []int{3, 50})
	b := FromIndices(100, []int{3, 50, 99})
	if !a.IsSubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.IsSubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.IsSubsetOf(a) {
		t.Error("a should be subset of itself")
	}
}

func TestForEachAndIndices(t *testing.T) {
	in := []int{0, 63, 64, 99}
	s := FromIndices(100, in)
	got := s.Indices()
	if len(got) != len(in) {
		t.Fatalf("Indices len = %d, want %d", len(got), len(in))
	}
	for k, v := range in {
		if got[k] != v {
			t.Errorf("Indices[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(64, []int{1, 2})
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Error("Clone shares storage with original")
	}
}

func TestClear(t *testing.T) {
	a := FromIndices(64, []int{1, 2, 3})
	a.Clear()
	if a.Any() {
		t.Error("set not empty after Clear")
	}
}

func TestString(t *testing.T) {
	s := FromIndices(64, []int{2, 5})
	if got := s.String(); got != "{2, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := New(8).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// randSet builds a random subset of a fixed universe from quick-generated data.
func randSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSet(r, 257), randSet(r, 257)
		return union(a, b).Equal(union(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randSet(r, 129), randSet(r, 129), randSet(r, 129)
		return union(union(a, b), c).Equal(union(a, union(b, c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |a ∪ b| + |a ∩ b| == |a| + |b|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSet(r, 511), randSet(r, 511)
		return union(a, b).Count()+IntersectCount(a, b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDifferencePartition(t *testing.T) {
	// a = (a\b) ⊎ (a∩b)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSet(r, 300), randSet(r, 300)
		d, i := difference(a, b), intersect(a, b)
		if IntersectCount(d, i) != 0 {
			return false
		}
		return union(d, i).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCountMatchesIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randSet(r, 123)
		return a.Count() == len(a.Indices())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectAndNotCount(t *testing.T) {
	a := FromIndices(10, []int{0, 1, 2, 3, 4})
	b := FromIndices(10, []int{1, 2, 3, 9})
	c := FromIndices(10, []int{2, 5})
	// a ∩ b = {1,2,3}; minus c = {1,3}.
	if got := IntersectAndNotCount(a, b, c); got != 2 {
		t.Errorf("IntersectAndNotCount = %d, want 2", got)
	}
	if got := IntersectAndNotCount(a, b, New(10)); got != 3 {
		t.Errorf("against empty c = %d, want 3", got)
	}
}

// TestUnrolledKernelTails sweeps universe sizes straddling the 4-word
// unroll boundary of the count kernels — word counts ≡ 0..3 (mod 4) plus
// the empty set — so the unrolled body and the remainder loop are each
// verified against a reference computed via the materializing set ops.
func TestUnrolledKernelTails(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193,
		255, 256, 257, 319, 320, 321, 511, 512, 513}
	for _, n := range sizes {
		for trial := 0; trial < 4; trial++ {
			a, b, c := randSet(r, n), randSet(r, n), randSet(r, n)
			if got, want := IntersectCount(a, b), intersect(a, b).Count(); got != want {
				t.Errorf("n=%d: IntersectCount = %d, want %d", n, got, want)
			}
			got := IntersectAndNotCount(a, b, c)
			if want := difference(intersect(a, b), c).Count(); got != want {
				t.Errorf("n=%d: IntersectAndNotCount = %d, want %d", n, got, want)
			}
		}
	}
}

func TestQuickIntersectAndNotCount(t *testing.T) {
	// Kernel count = |a ∩ b \ c| materialised the slow way.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randSet(r, 257), randSet(r, 257), randSet(r, 257)
		want := difference(intersect(a, b), c).Count()
		return IntersectAndNotCount(a, b, c) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersectAndNotCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y, z := randSet(r, 1<<16), randSet(r, 1<<16), randSet(r, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectAndNotCount(x, y, z)
	}
}

func TestWordsFromWordsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 63, 64, 65, 257} {
			s := randSet(r, n)
			if !FromWords(n, s.Words()).Equal(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromWordsMasksTailBits(t *testing.T) {
	// A corrupted word with bits beyond the universe must not leak into
	// set membership or counts.
	s := FromWords(10, []uint64{^uint64(0)})
	if got := s.Count(); got != 10 {
		t.Errorf("Count = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		if !s.Contains(i) {
			t.Errorf("missing %d", i)
		}
	}
}

func TestFromWordsWordCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on word-count mismatch")
		}
	}()
	FromWords(65, []uint64{0})
}
