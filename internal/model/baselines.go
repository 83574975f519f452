package model

import (
	"bwshare/internal/graph"
)

// KimLee is the prior-work baseline of Kim & Lee (2001), as summarized in
// Section II: a piecewise-linear communication time multiplied by "the
// maximum number of communications within the sharing conflict". In
// penalty terms, p(ci) = max(delta_o(src), delta_i(dst)).
type KimLee struct{}

// Name implements core.Model.
func (KimLee) Name() string { return "kimlee" }

// Penalties implements core.Model: PenaltiesInto on fresh scratch.
func (k KimLee) Penalties(g *graph.Graph) []float64 {
	var s Scratch
	return k.PenaltiesInto(g, &s)
}

// PenaltiesInto is Penalties computed in s's buffers; the result
// aliases s and is valid until the next call with s.
func (KimLee) PenaltiesInto(g *graph.Graph, s *Scratch) []float64 {
	out := s.penalties(g.Len())
	for i := range out {
		s, d := g.Ends(graph.CommID(i))
		out[i] = clampPenalty(float64(max(g.OutDegreeAt(s), g.InDegreeAt(d))))
	}
	return out
}

// Linear is the LogGP-style contention-blind baseline (Section II): each
// communication is assumed independent, so its penalty is always 1. It
// exists to quantify how much accuracy contention awareness buys.
type Linear struct{}

// Name implements core.Model.
func (Linear) Name() string { return "linear" }

// Penalties implements core.Model: PenaltiesInto on fresh scratch.
func (l Linear) Penalties(g *graph.Graph) []float64 {
	var s Scratch
	return l.PenaltiesInto(g, &s)
}

// PenaltiesInto is Penalties computed in s's buffers; the result
// aliases s and is valid until the next call with s.
func (Linear) PenaltiesInto(g *graph.Graph, s *Scratch) []float64 {
	out := s.penalties(g.Len())
	for i := range out {
		out[i] = 1
	}
	return out
}
