// Package model implements the paper's predictive bandwidth-sharing
// penalty models (Section V) and the comparison baselines (Section II).
//
// Implemented models:
//
//   - GigE: the quantitative Gigabit Ethernet model with parameters
//     (beta, gamma_o, gamma_i) and the "strongly slowed" communication
//     sets Cm_o / Cm_i (Section V-A).
//   - Myrinet: the descriptive state-set model derived from Stop & Go
//     flow control (Section V-B, Figures 5-6).
//   - InfiniBand: a degree model instance for the Infinihost III; the
//     paper lists this as work in progress, we provide it as the natural
//     extension calibrated exactly like the GigE model.
//   - KimLee: the prior-work baseline [Kim & Lee 2001]: a communication's
//     penalty is the maximum number of communications inside its sharing
//     conflict.
//   - Linear: a LogGP-style contention-blind baseline (penalty 1).
//
// All models return static penalties for a fixed conflict graph; the
// progressive re-evaluation the paper's simulator performs lives in
// package predict. Every model here is component-local, as core.Model
// requires of a model the predictor re-evaluates: a communication's
// penalty depends only on the communications reachable from it through
// shared senders or shared receivers, never on volumes. The degree
// models read degrees and Cm sets at most two hops away through a
// same-role endpoint, KimLee and Linear read local degrees only, and
// Myrinet under the paper's same-role rule decomposes by component.
// Myrinet under graph.AnyEndpoint (the EXP-A2 ablation) is not
// component-local in that sense and is only ever scored statically.
//
// The degree models, KimLee and Linear also offer PenaltiesInto, which
// scores into a caller-owned Scratch and, once warm, allocates nothing.
package model

import (
	"math"
)

// clampPenalty enforces the invariant that sharing never speeds a
// communication up: penalties are at least 1.
func clampPenalty(p float64) float64 {
	if p < 1 || math.IsNaN(p) {
		return 1
	}
	return p
}

// Scratch holds the buffers PenaltiesInto reuses across calls. The zero
// value is ready; a Scratch serves one caller at a time.
type Scratch struct {
	out []float64
	cm  []strongly
}

// strongly describes one node's strongly slowed sets for DegreeModel:
// its outgoing Cm_o (maxDi over the in-degrees of its comms'
// destinations, cardO of them reaching it) and its incoming Cm_i
// (maxDo, cardI).
type strongly struct{ maxDi, cardO, maxDo, cardI int }

// penalties returns s's result buffer resized to n, never nil.
func (s *Scratch) penalties(n int) []float64 {
	if s.out == nil || cap(s.out) < n {
		s.out = make([]float64, n)
	}
	return s.out[:n]
}

// strongly returns s's per-node aggregate resized to n and zeroed.
func (s *Scratch) strongly(n int) []strongly {
	if cap(s.cm) < n {
		s.cm = make([]strongly, n)
	}
	s.cm = s.cm[:n]
	clear(s.cm)
	return s.cm
}

// maxf returns the larger of two float64s (tiny local helper; the stdlib
// math.Max also handles NaN/inf cases we never produce here).
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
