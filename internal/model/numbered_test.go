package model

import (
	"math"
	"math/rand"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/randgen"
	"bwshare/internal/schemes"
)

// slotNumbering numbers the constraint slots of comms the way a
// component walk may: every sender NIC and every receiver NIC gets its
// own index, and the indices are a random permutation of [0, n), so no
// order of nodes or comms is implied.
func slotNumbering(rng *rand.Rand, comms []graph.Comm) (src, dst []int, n int) {
	type slot struct {
		node graph.NodeID
		recv bool
	}
	index := make(map[slot]int)
	var order []slot
	for _, c := range comms {
		for _, s := range []slot{{c.Src, false}, {c.Dst, true}} {
			if _, ok := index[s]; !ok {
				index[s] = -1
				order = append(order, s)
			}
		}
	}
	for i, k := range rng.Perm(len(order)) {
		index[order[i]] = k
	}
	for _, c := range comms {
		src = append(src, index[slot{c.Src, false}])
		dst = append(dst, index[slot{c.Dst, true}])
	}
	return src, dst, len(order)
}

// TestNumberedGraphScoresLikeScratch: every model scores a graph built
// by RebuildNumbered, in which an index names a sender or a receiver
// NIC, bit for bit like the built graph of the same comms, on the
// catalog schemes and on random ones, through Penalties and, where
// offered, PenaltiesInto. One numbered graph serves every scheme, so
// rebuilds over larger and smaller schemes are covered. On a numbered
// graph the node-id accessors panic.
func TestNumberedGraphScoresLikeScratch(t *testing.T) {
	var gs []*graph.Graph
	for _, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		gs = append(gs, g)
	}
	random, err := randgen.Schemes(3, 200, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, random...)

	models := []interface {
		Name() string
		Penalties(*graph.Graph) []float64
	}{NewGigE(), NewMyrinet(), NewInfiniBand(), KimLee{}, Linear{}}
	rng := rand.New(rand.NewSource(24))
	var numbered graph.Graph
	var sc Scratch
	for gi, g := range gs {
		comms := g.Comms()
		src, dst, n := slotNumbering(rng, comms)
		graph.RebuildNumbered(&numbered, comms, src, dst, n)
		if numbered.NumNodes() != n || numbered.MaxNode() != g.MaxNode() || !graph.Equal(&numbered, g) {
			t.Fatalf("scheme %d: numbered graph has %d node indices and max node %d, want %d and %d, and the same comms",
				gi, numbered.NumNodes(), numbered.MaxNode(), n, g.MaxNode())
		}
		for _, m := range models {
			want := m.Penalties(g)
			got := [][]float64{m.Penalties(&numbered)}
			if into, ok := m.(scratchModel); ok {
				got = append(got, into.PenaltiesInto(&numbered, &sc))
			}
			for _, p := range got {
				for i := range want {
					if math.Float64bits(p[i]) != math.Float64bits(want[i]) {
						t.Fatalf("scheme %d (%s), %s, comm %d: numbered %.17g, built %.17g",
							gi, g, m.Name(), i, p[i], want[i])
					}
				}
			}
		}
	}

	c := numbered.Comm(0)
	for name, call := range map[string]func(){
		"Nodes":      func() { numbered.Nodes() },
		"OutDegree":  func() { numbered.OutDegree(c.Src) },
		"InDegree":   func() { numbered.InDegree(c.Dst) },
		"ConflictAt": func() { numbered.ConflictAt(0, c.Src) },
	} {
		if !panics(call) {
			t.Errorf("%s on a numbered graph did not panic", name)
		}
	}
}

// scratchModel is the allocation-free form the degree models, KimLee
// and Linear offer.
type scratchModel interface {
	PenaltiesInto(*graph.Graph, *Scratch) []float64
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
