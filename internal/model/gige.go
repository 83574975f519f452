package model

import (
	"bwshare/internal/graph"
)

// DegreeModel is the quantitative penalty model of Section V-A,
// parameterized by (Beta, GammaOut, GammaIn). The paper instantiates it
// for Gigabit Ethernet; the InfiniBand instance is our calibrated
// extension of the same formulas.
//
// For a communication ci from vs to vd with out-degree do = delta_o(vs)
// and in-degree di = delta_i(vd):
//
//	po = 1                                              if do == 1
//	po = do*beta*(1 + gamma_o*(do - |Cm_o|))            if ci in Cm_o
//	po = do*beta*(1 - gamma_o/|Cm_o|)                   otherwise
//
// where Cm_o is the subset of communications leaving vs whose destination
// in-degree is maximal ("strongly slowed outgoing communications",
// Definition 1). pi is symmetric with (di, gamma_i, Cm_i) where Cm_i is
// the subset of communications entering vd whose source out-degree is
// maximal. The penalty is p = max(po, pi).
type DegreeModel struct {
	ModelName string
	// Beta is the resource-sharing penalty slope: k same-NIC flows cost
	// about k*Beta each. Estimated from simple outgoing conflicts.
	Beta float64
	// GammaOut weights how much the strongly slowed outgoing
	// communications are further penalized (and the others relieved).
	GammaOut float64
	// GammaIn is the incoming-side analogue of GammaOut.
	GammaIn float64
}

// NewGigE returns the Gigabit Ethernet model with the paper's calibrated
// parameters: beta = 0.75 (Figure 2), gamma_o = 0.115 and gamma_i = 0.036
// (Figure 4).
func NewGigE() DegreeModel {
	return DegreeModel{ModelName: "gige", Beta: 0.75, GammaOut: 0.115, GammaIn: 0.036}
}

// NewInfiniBand returns the Infinihost III degree model, calibrated from
// the Figure 2 InfiniBand column with the paper's own procedure (the
// paper announces this model as future work; see README.md).
func NewInfiniBand() DegreeModel {
	return DegreeModel{ModelName: "infiniband", Beta: 0.8625, GammaOut: 0.207, GammaIn: 0.339}
}

// Name implements core.Model.
func (m DegreeModel) Name() string {
	if m.ModelName == "" {
		return "degree"
	}
	return m.ModelName
}

// Penalties implements core.Model: PenaltiesInto on fresh scratch, so
// the result is a fresh slice the caller may keep.
func (m DegreeModel) Penalties(g *graph.Graph) []float64 {
	var sc Scratch
	return m.PenaltiesInto(g, &sc)
}

// PenaltiesInto is Penalties computed in sc's buffers; the result
// aliases sc and is valid until the next call with sc. After the first
// calls of a given size it allocates nothing.
//
// It makes two linear passes: the first gathers, per node, the maximum
// and multiplicity that define Cm_o (over the comms leaving it) and Cm_i
// (over the comms entering it); the second evaluates po and pi per
// communication.
func (m DegreeModel) PenaltiesInto(g *graph.Graph, sc *Scratch) []float64 {
	n := g.Len()
	out := sc.penalties(n)
	cm := sc.strongly(g.NumNodes())
	for i := 0; i < n; i++ {
		s, d := g.Ends(graph.CommID(i))
		if di := g.InDegreeAt(d); di > cm[s].maxDi {
			cm[s].maxDi, cm[s].cardO = di, 1
		} else if di == cm[s].maxDi {
			cm[s].cardO++
		}
		if do := g.OutDegreeAt(s); do > cm[d].maxDo {
			cm[d].maxDo, cm[d].cardI = do, 1
		} else if do == cm[d].maxDo {
			cm[d].cardI++
		}
	}
	for i := range out {
		s, d := g.Ends(graph.CommID(i))
		do, di := g.OutDegreeAt(s), g.InDegreeAt(d)
		po, pi := 1.0, 1.0
		if do != 1 {
			base := float64(do) * m.Beta
			if c := cm[s]; di == c.maxDi {
				po = base * (1 + float64(m.GammaOut*float64(do-c.cardO)))
			} else {
				po = base * (1 - m.GammaOut/float64(c.cardO))
			}
		}
		if di != 1 {
			base := float64(di) * m.Beta
			if c := cm[d]; do == c.maxDo {
				pi = base * (1 + float64(m.GammaIn*float64(di-c.cardI)))
			} else {
				pi = base * (1 - m.GammaIn/float64(c.cardI))
			}
		}
		out[i] = clampPenalty(maxf(po, pi))
	}
	return out
}
