package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bwshare/internal/graph"
)

// randomGraph builds a random scheme with up to 10 communications over
// up to 6 nodes (no self loops, duplicate edges allowed).
func randomGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(9) + 2
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		src := graph.NodeID(rng.Intn(6))
		dst := graph.NodeID(rng.Intn(6))
		for dst == src {
			dst = graph.NodeID(rng.Intn(6))
		}
		b.Add(fmt.Sprintf("c%d", i), src, dst, 1e6*float64(rng.Intn(20)+1))
	}
	return b.MustBuild()
}

// TestPropertyPenaltiesAtLeastOne: every model returns penalties >= 1 on
// random graphs.
func TestPropertyPenaltiesAtLeastOne(t *testing.T) {
	models := []interface {
		Penalties(*graph.Graph) []float64
	}{NewGigE(), NewMyrinet(), NewInfiniBand(), KimLee{}, Linear{}}
	prop := func(seed int64) bool {
		g := randomGraph(seed)
		for _, m := range models {
			p := m.Penalties(g)
			if len(p) != g.Len() {
				return false
			}
			for _, v := range p {
				if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNodeRelabelInvariance: penalties depend on the conflict
// structure, not on node identities - relabeling nodes by a fixed offset
// leaves every model's penalties unchanged.
func TestPropertyNodeRelabelInvariance(t *testing.T) {
	models := []interface {
		Penalties(*graph.Graph) []float64
	}{NewGigE(), NewMyrinet(), KimLee{}}
	prop := func(seed int64, offRaw uint8) bool {
		off := graph.NodeID(offRaw%50) + 1
		g := randomGraph(seed)
		b := graph.NewBuilder()
		for _, c := range g.Comms() {
			b.Add(c.Label, c.Src+off, c.Dst+off, c.Volume)
		}
		shifted := b.MustBuild()
		for _, m := range models {
			pa := m.Penalties(g)
			pb := m.Penalties(shifted)
			for i := range pa {
				if math.Abs(pa[i]-pb[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCommOrderInvariance: the core.Model contract the
// predictor's unsorted re-scoring relies on — shuffling a graph's
// communications shuffles every model's penalties the same way, bit for
// bit.
func TestPropertyCommOrderInvariance(t *testing.T) {
	models := []interface {
		Penalties(*graph.Graph) []float64
	}{NewGigE(), NewMyrinet(), NewInfiniBand(), KimLee{}, Linear{}}
	prop := func(seed int64) bool {
		g := randomGraph(seed)
		perm := rand.New(rand.NewSource(seed)).Perm(g.Len())
		b := graph.NewBuilder()
		for _, i := range perm {
			c := g.Comm(graph.CommID(i))
			b.Add(c.Label, c.Src, c.Dst, c.Volume)
		}
		shuffled := b.MustBuild()
		for _, m := range models {
			pa, pb := m.Penalties(g), m.Penalties(shuffled)
			for j, i := range perm {
				if pa[i] != pb[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMyrinetComponentLocality: computing penalties on the whole
// graph equals computing them on each conflict-component subgraph (the
// optimization used for large application graphs).
func TestPropertyMyrinetComponentLocality(t *testing.T) {
	m := NewMyrinet()
	prop := func(seedA, seedB int64) bool {
		// Build two independent graphs on disjoint node ranges and fuse
		// them: penalties of the fused graph must equal the per-part
		// penalties.
		ga := randomGraph(seedA)
		gb := randomGraph(seedB)
		b := graph.NewBuilder()
		for _, c := range ga.Comms() {
			b.Add("a"+c.Label, c.Src, c.Dst, c.Volume)
		}
		for _, c := range gb.Comms() {
			b.Add("b"+c.Label, c.Src+100, c.Dst+100, c.Volume)
		}
		fused := b.MustBuild()
		pf := m.Penalties(fused)
		pa := m.Penalties(ga)
		pb := m.Penalties(gb)
		for i := range pa {
			if math.Abs(pf[i]-pa[i]) > 1e-9 {
				return false
			}
		}
		for i := range pb {
			if math.Abs(pf[len(pa)+i]-pb[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMyrinetCoefficientBounds: every emission coefficient is in
// [1, nsets] and the per-source minimum never exceeds the raw sum.
func TestPropertyMyrinetCoefficientBounds(t *testing.T) {
	m := NewMyrinet()
	prop := func(seed int64) bool {
		g := randomGraph(seed)
		sum, min, nsets := m.Coefficients(g)
		if nsets < 1 {
			return false
		}
		for i := range sum {
			if sum[i] < 1 || sum[i] > nsets {
				return false
			}
			if min[i] < 1 || min[i] > sum[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyKimLeeDominatesDegrees: the Kim&Lee penalty equals the max
// endpoint degree, hence is monotone when a communication is added.
func TestPropertyKimLeeDominatesDegrees(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed)
		p := KimLee{}.Penalties(g)
		for _, c := range g.Comms() {
			want := g.OutDegree(c.Src)
			if d := g.InDegree(c.Dst); d > want {
				want = d
			}
			if p[c.ID] != float64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDegreeModelGammaZeroSymmetry: with gamma = 0 the degree model
// reduces to pure k*beta on both sides, so po and pi are max(do, di)*beta.
func TestDegreeModelGammaZeroSymmetry(t *testing.T) {
	m := DegreeModel{ModelName: "plain", Beta: 0.8}
	prop := func(seed int64) bool {
		g := randomGraph(seed)
		p := m.Penalties(g)
		for _, c := range g.Comms() {
			do, di := g.OutDegree(c.Src), g.InDegree(c.Dst)
			want := 1.0
			if do > 1 || di > 1 {
				k := do
				if di > k {
					k = di
				}
				want = 0.8 * float64(k)
				if want < 1 {
					want = 1
				}
			}
			if math.Abs(p[c.ID]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
