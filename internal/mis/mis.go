// Package mis enumerates maximal independent sets of small graphs.
//
// The Myrinet descriptive model of the paper ("all the possible
// combinations of communication states", Section V-B) is the set of all
// maximal independent sets of the communication conflict graph: a set of
// communications that can be in the "send" state simultaneously, to which
// no further communication can be added.
//
// Enumeration uses the Bron–Kerbosch algorithm with pivoting on the
// complement graph (maximal cliques of the complement are exactly the
// maximal independent sets of the original graph). Scheme graphs in the
// paper have at most a few dozen communications, so exponential worst-case
// cost is irrelevant; pivoting keeps typical costs tiny.
package mis

import (
	"math/bits"
	"sort"
)

// MaximalIndependentSets returns every maximal independent set of the
// graph described by the symmetric adjacency matrix adj. Each set is a
// sorted slice of vertex indices; the sets themselves are returned in
// deterministic lexicographic order. The empty graph (n == 0) yields nil.
func MaximalIndependentSets(adj [][]bool) [][]int {
	n := len(adj)
	if n == 0 {
		return nil
	}
	// Complement adjacency as bitsets for speed.
	comp := make([]bitset, n)
	for i := 0; i < n; i++ {
		comp[i] = newBitset(n)
		for j := 0; j < n; j++ {
			if i != j && !adj[i][j] {
				comp[i].set(j)
			}
		}
	}
	e := &enum{n: n, adj: comp}
	r := newBitset(n)
	p := newBitset(n)
	x := newBitset(n)
	for i := 0; i < n; i++ {
		p.set(i)
	}
	e.bronKerbosch(r, p, x)
	sort.Slice(e.out, func(a, b int) bool { return lessIntSlice(e.out[a], e.out[b]) })
	return e.out
}

// InSet reports whether vertex v belongs to the set s (s must be sorted).
func InSet(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Counts returns, for each vertex 0..n-1, the number of sets containing it
// (the "emission coefficient" of the Myrinet model).
func Counts(sets [][]int, n int) []int {
	counts := make([]int, n)
	for _, s := range sets {
		for _, v := range s {
			counts[v]++
		}
	}
	return counts
}

type enum struct {
	n   int
	adj []bitset
	out [][]int
}

// bronKerbosch enumerates maximal cliques of the complement graph with the
// Tomita pivot rule (pivot u from P∪X maximizing |P ∩ N(u)|).
func (e *enum) bronKerbosch(r, p, x bitset) {
	if p.empty() && x.empty() {
		e.out = append(e.out, r.elems())
		return
	}
	// Choose pivot.
	pivot, best := -1, -1
	both := p.or(x)
	both.each(func(u int) {
		c := p.andCount(e.adj[u])
		if c > best {
			best, pivot = c, u
		}
	})
	// Candidates: P \ N(pivot).
	cand := p.andNot(e.adj[pivot])
	cand.each(func(v int) {
		nv := e.adj[v]
		r2 := r.clone()
		r2.set(v)
		e.bronKerbosch(r2, p.and(nv), x.and(nv))
		p.clear(v)
		x.set(v)
	})
}

// bitset is a small fixed-capacity bitset over 64-bit words.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) and(o bitset) bitset {
	c := make(bitset, len(b))
	for i := range b {
		c[i] = b[i] & o[i]
	}
	return c
}

func (b bitset) andNot(o bitset) bitset {
	c := make(bitset, len(b))
	for i := range b {
		c[i] = b[i] &^ o[i]
	}
	return c
}

func (b bitset) or(o bitset) bitset {
	c := make(bitset, len(b))
	for i := range b {
		c[i] = b[i] | o[i]
	}
	return c
}

func (b bitset) andCount(o bitset) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(b[i] & o[i])
	}
	return n
}

func (b bitset) each(f func(int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func (b bitset) elems() []int {
	var out []int
	b.each(func(i int) { out = append(out, i) })
	return out
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
