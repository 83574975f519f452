// Package randgen generates random communication schemes and random
// application traces deterministically from a seed.
//
// The paper evaluates its models on six hand-drawn schemes and two
// synthetic graphs; scaling that evaluation to thousands of scenarios
// needs a generator. Everything here is driven by an explicit
// *rand.Rand (PCG, math/rand/v2), so a seed fully determines the
// output across runs and platforms: the experiment runner and the
// property-based test harness both rely on that reproducibility.
//
// Schemes respect the structural invariants of graph.Builder (no
// self-loops, unique labels, positive volumes) plus configurable bounds
// on node count, per-node fan-in/fan-out degree, and volume. Traces are
// barrier-free and rendezvous-safe (see trace.go), so they replay
// without deadlock and compose with apps.Compose.
package randgen

import (
	"fmt"
	"math/rand/v2"

	"bwshare/internal/graph"
)

// NewRand returns the deterministic generator used by every seed-level
// helper in this package: PCG seeded with (seed, golden gamma). Two
// calls with equal seeds yield identical streams.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
}

// SchemeConfig bounds random scheme generation. All bounds are
// inclusive.
type SchemeConfig struct {
	// MinNodes and MaxNodes bound the cluster node count.
	MinNodes, MaxNodes int
	// MinComms and MaxComms bound the number of communications. The
	// degree caps may force fewer communications than requested; at
	// least one is always produced.
	MinComms, MaxComms int
	// MaxOut and MaxIn cap each node's outgoing and incoming degree
	// (the paper's conflict degrees k).
	MaxOut, MaxIn int
	// MinVolume and MaxVolume bound per-communication volumes in bytes.
	MinVolume, MaxVolume float64
}

// DefaultSchemeConfig returns bounds spanning the paper's figures:
// schemes the size of S1..S6, MK1 and MK2, with conflict degrees up to
// 3 and volumes between 1 and 20 MB.
func DefaultSchemeConfig() SchemeConfig {
	return SchemeConfig{
		MinNodes: 4, MaxNodes: 12,
		MinComms: 2, MaxComms: 16,
		MaxOut: 3, MaxIn: 3,
		MinVolume: 1e6, MaxVolume: 20e6,
	}
}

// validate reports the first nonsensical bound.
func (c SchemeConfig) validate() error {
	switch {
	case c.MinNodes < 2:
		return fmt.Errorf("randgen: MinNodes %d < 2", c.MinNodes)
	case c.MaxNodes < c.MinNodes:
		return fmt.Errorf("randgen: MaxNodes %d < MinNodes %d", c.MaxNodes, c.MinNodes)
	case c.MinComms < 1:
		return fmt.Errorf("randgen: MinComms %d < 1", c.MinComms)
	case c.MaxComms < c.MinComms:
		return fmt.Errorf("randgen: MaxComms %d < MinComms %d", c.MaxComms, c.MinComms)
	case c.MaxOut < 1 || c.MaxIn < 1:
		return fmt.Errorf("randgen: degree caps must be >= 1, got out %d in %d", c.MaxOut, c.MaxIn)
	case c.MinVolume <= 0:
		return fmt.Errorf("randgen: MinVolume %g <= 0", c.MinVolume)
	case c.MaxVolume < c.MinVolume:
		return fmt.Errorf("randgen: MaxVolume %g < MinVolume %g", c.MaxVolume, c.MinVolume)
	}
	return nil
}

// intIn draws uniformly from [lo, hi].
func intIn(rng *rand.Rand, lo, hi int) int {
	if lo == hi {
		return lo
	}
	return lo + rng.IntN(hi-lo+1)
}

// volIn draws a volume uniformly from [lo, hi].
func volIn(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64(rng.Float64()*(hi-lo))
}

// Scheme draws one random communication scheme from rng under cfg.
// Nodes are 0..n-1 for a drawn n; communications are labelled c0, c1,
// ... in creation order. Endpoint pairs are drawn by rejection, so the
// result is a multigraph whose fan-in/fan-out degrees respect the caps;
// when the caps saturate before the drawn communication count is
// reached, the scheme is returned with the communications placed so
// far (never fewer than one).
func Scheme(rng *rand.Rand, cfg SchemeConfig) (*graph.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := intIn(rng, cfg.MinNodes, cfg.MaxNodes)
	m := intIn(rng, cfg.MinComms, cfg.MaxComms)
	// The degree caps bound the placeable communications globally.
	if cap := n * cfg.MaxOut; m > cap {
		m = cap
	}
	if cap := n * cfg.MaxIn; m > cap {
		m = cap
	}
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	b := graph.NewBuilder()
	placed := 0
	// Rejection sampling with a generous attempt budget: residual
	// capacity can be unplaceable (e.g. only node x can still send and
	// only x can still receive), in which case we stop early.
	for attempts := 0; placed < m && attempts < 60*m+120; attempts++ {
		src := rng.IntN(n)
		dst := rng.IntN(n)
		if src == dst || outDeg[src] >= cfg.MaxOut || inDeg[dst] >= cfg.MaxIn {
			continue
		}
		vol := volIn(rng, cfg.MinVolume, cfg.MaxVolume)
		b.Add(fmt.Sprintf("c%d", placed), graph.NodeID(src), graph.NodeID(dst), vol)
		outDeg[src]++
		inDeg[dst]++
		placed++
	}
	if placed == 0 {
		return nil, fmt.Errorf("randgen: could not place any communication (nodes %d, caps out %d in %d)", n, cfg.MaxOut, cfg.MaxIn)
	}
	return b.Build()
}

// SchemeFromSeed is Scheme with a fresh seeded generator.
func SchemeFromSeed(seed int64, cfg SchemeConfig) (*graph.Graph, error) {
	return Scheme(NewRand(seed), cfg)
}

// Schemes draws n schemes from one generator seeded with seed. The
// whole slice is a pure function of (seed, n, cfg): scheme i is
// identical across runs, and extending n leaves earlier schemes
// unchanged.
func Schemes(seed int64, n int, cfg SchemeConfig) ([]*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("randgen: Schemes needs n >= 1, got %d", n)
	}
	rng := NewRand(seed)
	out := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		g, err := Scheme(rng, cfg)
		if err != nil {
			return nil, fmt.Errorf("randgen: scheme %d: %w", i, err)
		}
		out = append(out, g)
	}
	return out, nil
}
