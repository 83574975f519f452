package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bwshare/internal/graph"
)

// oraclePenalties is DegreeModel.Penalties as first written: po and pi
// per communication, each rescanning the comms of its source or
// destination for Cm_o or Cm_i. It is quadratic and kept as the
// reference the linear two-pass Penalties must match bit for bit.
func oraclePenalties(m DegreeModel, g *graph.Graph) []float64 {
	out := make([]float64, g.Len())
	for _, c := range g.Comms() {
		out[c.ID] = clampPenalty(maxf(oracleOutPenalty(m, g, c), oracleInPenalty(m, g, c)))
	}
	return out
}

func oracleOutPenalty(m DegreeModel, g *graph.Graph, c graph.Comm) float64 {
	do := g.OutDegree(c.Src)
	if do == 1 {
		return 1
	}
	maxDi, card := 0, 0
	for _, id := range g.Sources(c.Src) {
		di := g.InDegree(g.Comm(id).Dst)
		switch {
		case di > maxDi:
			maxDi, card = di, 1
		case di == maxDi:
			card++
		}
	}
	base := float64(do) * m.Beta
	if g.InDegree(c.Dst) == maxDi {
		return base * (1 + float64(m.GammaOut*float64(do-card)))
	}
	return base * (1 - m.GammaOut/float64(card))
}

func oracleInPenalty(m DegreeModel, g *graph.Graph, c graph.Comm) float64 {
	di := g.InDegree(c.Dst)
	if di == 1 {
		return 1
	}
	maxDo, card := 0, 0
	for _, id := range g.Destinations(c.Dst) {
		do := g.OutDegree(g.Comm(id).Src)
		switch {
		case do > maxDo:
			maxDo, card = do, 1
		case do == maxDo:
			card++
		}
	}
	base := float64(di) * m.Beta
	if g.OutDegree(c.Src) == maxDo {
		return base * (1 + float64(m.GammaIn*float64(di-card)))
	}
	return base * (1 - m.GammaIn/float64(card))
}

// degreeCoverage counts, over a corpus, the Section V-A cases the
// differential test must exercise.
type degreeCoverage struct {
	tiedCm   int // a comm in a Cm set of two or more (do > 1 or di > 1)
	outsideC int // a comm outside its Cm_o or Cm_i
	oneSided int // degree 1 on exactly one side
}

func (cv *degreeCoverage) add(g *graph.Graph) {
	for _, c := range g.Comms() {
		do, di := g.OutDegree(c.Src), g.InDegree(c.Dst)
		if (do == 1) != (di == 1) {
			cv.oneSided++
		}
		if do > 1 {
			maxDi, card := 0, 0
			for _, id := range g.Sources(c.Src) {
				switch d := g.InDegree(g.Comm(id).Dst); {
				case d > maxDi:
					maxDi, card = d, 1
				case d == maxDi:
					card++
				}
			}
			if di == maxDi && card > 1 {
				cv.tiedCm++
			}
			if di != maxDi {
				cv.outsideC++
			}
		}
	}
}

// degreeCorpusGraph draws a random scheme of 1..40 comms over a node
// pool small enough to force shared NICs; with sparse set, node ids are
// spread far beyond 4*comms+64.
func degreeCorpusGraph(rng *rand.Rand, sparse bool) *graph.Graph {
	n := rng.Intn(40) + 1
	pool := rng.Intn(12) + 2
	id := func(k int) graph.NodeID {
		if sparse {
			return graph.NodeID(100000 + 977*k)
		}
		return graph.NodeID(k)
	}
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		s := rng.Intn(pool)
		d := rng.Intn(pool - 1)
		if d >= s {
			d++
		}
		b.Add(fmt.Sprintf("c%d", i), id(s), id(d), 1e6*float64(rng.Intn(20)+1))
	}
	return b.MustBuild()
}

// TestDegreePenaltiesMatchOracleBitwise: the linear Penalties returns
// exactly the oracle's float64 bits on seeded random schemes, for both
// calibrated parameter sets, dense and sparse node ids.
func TestDegreePenaltiesMatchOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var cv degreeCoverage
	for iter := 0; iter < 600; iter++ {
		sparse := iter%2 == 1
		g := degreeCorpusGraph(rng, sparse)
		if sparse && int(g.MaxNode()) <= 4*g.Len()+64 {
			t.Fatalf("sparse corpus graph has max node %d for %d comms", g.MaxNode(), g.Len())
		}
		cv.add(g)
		for _, m := range []DegreeModel{NewGigE(), NewInfiniBand()} {
			got, want := m.Penalties(g), oraclePenalties(m, g)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s on %v: comm %d penalty %v, oracle %v", m.Name(), g, i, got[i], want[i])
				}
			}
		}
	}
	if cv.tiedCm == 0 || cv.outsideC == 0 || cv.oneSided == 0 {
		t.Fatalf("corpus misses a case: %+v", cv)
	}
}
