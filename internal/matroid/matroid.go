// Package matroid provides the independence systems used by the
// varying-frequency selection of Section 5 of the paper: partition matroids
// over a ground set {0, …, n-1}.
//
// The paper encodes "pick at most one frequency version per source" as k
// rank-1 uniform matroid constraints, one per source, and notes that every
// uniform matroid is a partition matroid. A family of rank-1 uniform
// constraints over disjoint element classes is exactly one partition
// matroid, which is how this package represents it: the matroid local
// search then runs with k = 1 intersected matroid.
package matroid

import "fmt"

// Matroid is an independence oracle over the ground set {0, …, N()-1}.
type Matroid interface {
	// N returns the ground-set size.
	N() int
	// Independent reports whether the set (a list of distinct elements) is
	// independent.
	Independent(set []int) bool
	// CanAdd reports whether set ∪ {x} is independent given that set is.
	CanAdd(set []int, x int) bool
	// Conflicts returns the elements of set that prevent adding x; removing
	// any superset of them (typically exactly them) makes x addable. It
	// returns nil when x is directly addable.
	Conflicts(set []int, x int) []int
}

// Partition is a partition matroid: the ground set is partitioned into
// classes, each with a capacity; a set is independent iff it holds at most
// capacity-many elements of every class.
type Partition struct {
	classOf  []int
	capacity []int
}

// NewPartition builds a partition matroid. classOf[x] is the class of
// element x; capacity[c] bounds class c.
func NewPartition(classOf []int, capacity []int) (*Partition, error) {
	for x, c := range classOf {
		if c < 0 || c >= len(capacity) {
			return nil, fmt.Errorf("matroid: element %d has invalid class %d", x, c)
		}
	}
	for c, cap := range capacity {
		if cap < 0 {
			return nil, fmt.Errorf("matroid: class %d has negative capacity", c)
		}
	}
	return &Partition{classOf: classOf, capacity: capacity}, nil
}

// OnePerClass builds the matroid encoding the paper's frequency
// constraints: classOf[x] identifies the underlying source of candidate x,
// and each source contributes at most one frequency version.
func OnePerClass(classOf []int) (*Partition, error) {
	maxClass := -1
	for _, c := range classOf {
		if c > maxClass {
			maxClass = c
		}
	}
	capacity := make([]int, maxClass+1)
	for i := range capacity {
		capacity[i] = 1
	}
	return NewPartition(classOf, capacity)
}

// N implements Matroid.
func (p *Partition) N() int { return len(p.classOf) }

// Independent implements Matroid.
func (p *Partition) Independent(set []int) bool {
	if !validElements(set, len(p.classOf)) {
		return false
	}
	used := make(map[int]int)
	for _, x := range set {
		c := p.classOf[x]
		used[c]++
		if used[c] > p.capacity[c] {
			return false
		}
	}
	return true
}

// CanAdd implements Matroid.
func (p *Partition) CanAdd(set []int, x int) bool {
	if x < 0 || x >= len(p.classOf) {
		return false
	}
	c := p.classOf[x]
	used := 0
	for _, y := range set {
		if p.classOf[y] == c {
			used++
		}
	}
	return used < p.capacity[c]
}

// Conflicts implements Matroid.
func (p *Partition) Conflicts(set []int, x int) []int {
	if p.CanAdd(set, x) {
		return nil
	}
	c := p.classOf[x]
	var out []int
	for _, y := range set {
		if p.classOf[y] == c {
			out = append(out, y)
		}
	}
	if len(out) == 0 {
		return nil
	}
	// Removing one class member frees capacity for x.
	return out[:1]
}

// ClassOf returns the class of element x.
func (p *Partition) ClassOf(x int) int { return p.classOf[x] }

func validElements(set []int, n int) bool {
	seen := make(map[int]bool, len(set))
	for _, x := range set {
		if x < 0 || x >= n || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

// AllIndependent reports whether the set is independent in every matroid —
// membership in the intersection ∩ I_j of Section 5.
func AllIndependent(ms []Matroid, set []int) bool {
	for _, m := range ms {
		if !m.Independent(set) {
			return false
		}
	}
	return true
}
