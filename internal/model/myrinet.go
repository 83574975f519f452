package model

import (
	"math"

	"bwshare/internal/graph"
	"bwshare/internal/mis"
)

// Myrinet is the descriptive state-set model of Section V-B.
//
// Because the Myrinet NIC uses Stop & Go flow control, at any instant a
// communication is either sending or waiting, and "when a communication
// is in state send, each communication having the same source node or the
// same destination node becomes in state wait". The model therefore:
//
//  1. builds the conflict graph among communications under Rule,
//  2. enumerates all state sets = maximal independent sets,
//  3. gives each communication its emission coefficient = the number of
//     state sets in which it sends,
//  4. (if PerSourceMin) replaces each coefficient by the minimum
//     coefficient among communications leaving the same node - the worst
//     case in which a NIC's outgoing communications all go as slowly as
//     the slowest one, because they share the card fairly,
//  5. returns penalty = (number of state sets) / coefficient.
type Myrinet struct {
	// Rule selects the conflict rule. graph.SameRole is the paper's rule
	// and reproduces Figure 6 exactly; graph.AnyEndpoint is the EXP-A2
	// ablation alternative.
	Rule graph.ConflictRule
	// PerSourceMin applies step 4 above. The paper has it on; off is the
	// EXP-A2 ablation.
	PerSourceMin bool
}

// NewMyrinet returns the model exactly as in the paper.
func NewMyrinet() Myrinet {
	return Myrinet{Rule: graph.SameRole, PerSourceMin: true}
}

// Name implements core.Model.
func (m Myrinet) Name() string { return "myrinet" }

// StateSets returns every state set of g under the model's conflict rule:
// each set lists the communication ids (as ints) that send simultaneously.
// Exposed for the Figure 5 experiment and for reports.
func (m Myrinet) StateSets(g *graph.Graph) [][]int {
	return mis.MaximalIndependentSets(g.ConflictAdj(m.Rule))
}

// Coefficients returns the per-communication emission coefficients before
// and after the per-source minimum step, plus the state-set count.
// Exposed for the Figure 6 experiment.
func (m Myrinet) Coefficients(g *graph.Graph) (sum, min []int, nsets int) {
	sets := m.StateSets(g)
	nsets = len(sets)
	sum = mis.Counts(sets, g.Len())
	min = append([]int(nil), sum...)
	if m.PerSourceMin {
		// lo[k] is the least coefficient among the comms leaving node
		// index k.
		lo := make([]int, g.NumNodes())
		for k := range lo {
			lo[k] = math.MaxInt
		}
		for i, c := range sum {
			if s, _ := g.Ends(graph.CommID(i)); c < lo[s] {
				lo[s] = c
			}
		}
		for i := range min {
			s, _ := g.Ends(graph.CommID(i))
			min[i] = lo[s]
		}
	}
	return sum, min, nsets
}

// Penalties implements core.Model.
//
// Penalties are computed per connected component of the conflict graph:
// every global state set is the union of one maximal independent set per
// component, so K_total = prod K_c and coeff_total(v) = coeff_c(v) *
// prod_{c' != c} K_c', hence K_total/coeff_total = K_c/coeff_c. (The
// per-source minimum is also component-local: communications sharing a
// source conflict pairwise and therefore share a component.) This keeps
// the enumeration tractable on large application graphs where the global
// state-set count is the product of many small factors.
func (m Myrinet) Penalties(g *graph.Graph) []float64 {
	n := g.Len()
	if n == 0 {
		return nil
	}
	adj := g.ConflictAdj(m.Rule)
	out := make([]float64, n)
	comp := components(adj)
	for _, members := range comp {
		sub, orig := g.Subgraph(members)
		_, coeff, nsets := m.Coefficients(sub)
		for si, oi := range orig {
			out[oi] = clampPenalty(float64(nsets) / float64(coeff[si]))
		}
	}
	return out
}

// components returns the connected components of the conflict adjacency
// matrix as lists of comm ids, each sorted, in order of smallest member.
func components(adj [][]bool) [][]graph.CommID {
	n := len(adj)
	seen := make([]bool, n)
	var out [][]graph.CommID
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		var members []graph.CommID
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, graph.CommID(v))
			for u := 0; u < n; u++ {
				if adj[v][u] && !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sortCommIDs(members)
		out = append(out, members)
	}
	return out
}

func sortCommIDs(ids []graph.CommID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
