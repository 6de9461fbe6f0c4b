// Package bitset implements dense, fixed-universe bit arrays with the set
// algebra needed by the signature machinery of Section 4.2.1 of the paper:
// per-source signatures B, Bcov and Bup are bitsets over the entity
// universe, and the content of an integration result under union semantics
// is computed with bitwise OR and popcount.
//
// The implementation is deliberately simple and allocation-conscious: a Set
// is a slice of 64-bit words plus the universe size. All binary operations
// require operands with the same universe and panic otherwise; signatures
// for one data domain are always built with a common universe, so a size
// mismatch is a programming error rather than a recoverable condition.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-size bit array over the universe {0, …, Len()-1}.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over a universe of n elements.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set over a universe of n elements containing
// exactly the given indices.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	t := New(s.n)
	copy(t.words, s.words)
	return t
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith adds every element of t to s (s |= t).
func (s *Set) UnionWith(t *Set) {
	s.sameUniverse(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectCount returns |s ∩ t| without materialising the intersection.
// The loop is 4-way unrolled: four independent popcount chains keep the
// CPU's popcount unit busy instead of serialising on one accumulator.
func IntersectCount(s, t *Set) int {
	s.sameUniverse(t)
	sw, tw := s.words, t.words
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(sw); i += 4 {
		c0 += bits.OnesCount64(sw[i] & tw[i])
		c1 += bits.OnesCount64(sw[i+1] & tw[i+1])
		c2 += bits.OnesCount64(sw[i+2] & tw[i+2])
		c3 += bits.OnesCount64(sw[i+3] & tw[i+3])
	}
	for ; i < len(sw); i++ {
		c0 += bits.OnesCount64(sw[i] & tw[i])
	}
	return c0 + c1 + c2 + c3
}

// IntersectAndNotCount returns |a ∩ b \ c| without materialising any
// intermediate set — a single fused pass of popcount(a ∧ b ∧ ¬c) per word.
// It is the kernel of the incremental quality estimators: the number of
// entities a candidate signature a contributes to a domain mask b beyond an
// already-unioned signature c. Like IntersectCount the pass is 4-way
// unrolled with independent accumulators.
func IntersectAndNotCount(a, b, c *Set) int {
	a.sameUniverse(b)
	a.sameUniverse(c)
	aw, bw, cw := a.words, b.words, c.words
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(aw); i += 4 {
		n0 += bits.OnesCount64(aw[i] & bw[i] &^ cw[i])
		n1 += bits.OnesCount64(aw[i+1] & bw[i+1] &^ cw[i+1])
		n2 += bits.OnesCount64(aw[i+2] & bw[i+2] &^ cw[i+2])
		n3 += bits.OnesCount64(aw[i+3] & bw[i+3] &^ cw[i+3])
	}
	for ; i < len(aw); i++ {
		n0 += bits.OnesCount64(aw[i] & bw[i] &^ cw[i])
	}
	return n0 + n1 + n2 + n3
}

// Words returns a copy of the set's 64-bit backing words, least-significant
// bit first — the wire form used by the persistent model cache.
func (s *Set) Words() []uint64 {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return out
}

// FromWords reconstructs a set over a universe of n elements from backing
// words previously obtained via Words. The word count must match the
// universe; bits beyond n are cleared, so a round trip through
// Words/FromWords is exact.
func FromWords(n int, words []uint64) *Set {
	s := New(n)
	if len(words) != len(s.words) {
		panic(fmt.Sprintf("bitset: %d words for universe %d (want %d)", len(words), n, len(s.words)))
	}
	copy(s.words, words)
	if n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(n) % wordBits)) - 1
	}
	return s
}

// Equal reports whether s and t contain the same elements over the same
// universe.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every element of s is in t.
func (s *Set) IsSubsetOf(t *Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Any reports whether the set is non-empty.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every element of the set in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Indices returns the elements of the set in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{i1, i2, …}" (for debugging and tests).
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) sameUniverse(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d != %d", s.n, t.n))
	}
}
