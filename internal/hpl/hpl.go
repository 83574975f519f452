// Package hpl generates Linpack (HPL) application traces with the
// communication scheme the paper uses for its Figures 8-9 evaluation:
// "a communication scheme where each task n sends a message to the task
// n+1" - the panel of every right-looking LU iteration circulates along
// the ring of MPI ranks while trailing-matrix updates overlap.
//
// The authors extracted their traces from a real HPL run (N = 20500)
// with the MPE library; we regenerate the same event structure
// synthetically:
//
//	for iteration k (panel of NB columns, N - k*NB remaining rows):
//	  owner o = k mod P:  factorize panel (compute), send panel to o+1
//	  rank r != o:        receive panel from r-1, forward to r+1 unless
//	                      the next rank is the owner, update trailing
//	                      submatrix (compute)
//
// Panel volumes shrink as the factorization proceeds, exactly like the
// real trace; compute durations follow the standard HPL flop counts
// scaled by a per-task flop rate.
package hpl

import (
	"fmt"

	"bwshare/internal/trace"
)

// Config parameterizes the generated run.
type Config struct {
	// N is the problem size (matrix order). The paper uses 20500.
	N int
	// NB is the blocking factor (panel width).
	NB int
	// P is the number of MPI tasks.
	P int
	// FlopsPerSec is the per-task sustained floating-point rate used to
	// turn flop counts into compute durations. The paper's 2 GHz
	// Opterons sustain roughly 3.2e9 flop/s in DGEMM.
	FlopsPerSec float64
	// ElemBytes is the matrix element size (8 for float64).
	ElemBytes int
	// Barrier inserts a global barrier at the start (the benchmark's
	// synchronized start).
	Barrier bool
	// Jitter adds deterministic per-(task, iteration) variation to the
	// trailing-update times, in [0, 1): duration is scaled by
	// 1 + Jitter*u with u in [-1, 1] from a hash of (task, iteration).
	// It models the memory congestion and system noise the paper blames
	// for its per-task variability (Section VI-D); it desynchronizes
	// the panel ring so transfers bunch up and contend, as on a real
	// machine. Set to 0 for a perfectly regular (contention-free) run.
	Jitter float64
}

// Default returns the paper's evaluation configuration scaled to the
// given task count: N = 20500, NB = 120.
func Default(p int) Config {
	return Config{N: 20500, NB: 120, P: p, FlopsPerSec: 3.2e9, ElemBytes: 8, Barrier: true, Jitter: 0.35}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 || c.NB <= 0 || c.P <= 1 {
		return fmt.Errorf("hpl: need N > 0, NB > 0, P > 1 (got N=%d NB=%d P=%d)", c.N, c.NB, c.P)
	}
	if c.NB > c.N {
		return fmt.Errorf("hpl: NB %d exceeds N %d", c.NB, c.N)
	}
	if c.FlopsPerSec <= 0 {
		return fmt.Errorf("hpl: FlopsPerSec must be positive")
	}
	if c.ElemBytes <= 0 {
		return fmt.Errorf("hpl: ElemBytes must be positive")
	}
	return nil
}

// Iterations returns the number of panel iterations.
func (c Config) Iterations() int { return (c.N + c.NB - 1) / c.NB }

// PanelBytes returns the panel volume of iteration k.
func (c Config) PanelBytes(k int) float64 {
	rows := c.N - k*c.NB
	cols := c.NB
	if rows < cols {
		cols = rows
	}
	return float64(rows) * float64(cols) * float64(c.ElemBytes)
}

// panelFactorTime returns the panel factorization time of iteration k:
// ~ rows*NB^2 flops at the panel's (memory-bound) rate.
func (c Config) panelFactorTime(k int) float64 {
	rows := float64(c.N - k*c.NB)
	nb := float64(c.NB)
	flops := rows * nb * nb
	// Panel factorization runs at roughly a third of DGEMM speed.
	return flops / (c.FlopsPerSec / 3)
}

// updateTime returns one task's trailing-update time for iteration k:
// the 2*m*n*NB DGEMM flops divided evenly among the P tasks, perturbed
// by the configured jitter for the given rank.
func (c Config) updateTime(k, rank int) float64 {
	m := float64(c.N - (k+1)*c.NB)
	if m <= 0 {
		return 0
	}
	nb := float64(c.NB)
	flops := 2 * m * m * nb / float64(c.P)
	return flops / c.FlopsPerSec * (1 + float64(c.Jitter*noise(rank, k)))
}

// noise returns a deterministic pseudo-random value in [-1, 1] from
// (rank, iteration) using an xorshift-style integer hash; no global
// state, so traces are reproducible.
func noise(rank, k int) float64 {
	x := uint64(rank)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	// x>>11 has 53 bits, so the scaling is exact; the conversion keeps
	// the subtraction from fusing with it.
	return float64(float64(x>>11)/float64(1<<52)) - 1
}

// Generate builds the trace.
func Generate(c Config) (*trace.Trace, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t := &trace.Trace{Tasks: make([]trace.Task, c.P)}
	add := func(rank int, ev trace.Event) {
		t.Tasks[rank] = append(t.Tasks[rank], ev)
	}
	if c.Barrier {
		for r := 0; r < c.P; r++ {
			add(r, trace.Event{Kind: trace.Barrier})
		}
	}
	iters := c.Iterations()
	for k := 0; k < iters; k++ {
		owner := k % c.P
		bytes := c.PanelBytes(k)
		if bytes <= 0 {
			break
		}
		for off := 0; off < c.P; off++ {
			r := (owner + off) % c.P
			next := (r + 1) % c.P
			switch {
			case off == 0: // panel owner
				add(r, trace.Event{Kind: trace.Compute, Duration: c.panelFactorTime(k)})
				add(r, trace.Event{Kind: trace.Send, Peer: next, Bytes: bytes, Tag: k})
			case off == c.P-1: // last ring hop: receive only
				add(r, trace.Event{Kind: trace.Recv, Peer: (r - 1 + c.P) % c.P, Bytes: bytes, Tag: k})
			default: // middle of the ring: receive then forward
				add(r, trace.Event{Kind: trace.Recv, Peer: (r - 1 + c.P) % c.P, Bytes: bytes, Tag: k})
				add(r, trace.Event{Kind: trace.Send, Peer: next, Bytes: bytes, Tag: k})
			}
			if ut := c.updateTime(k, r); ut > 0 {
				add(r, trace.Event{Kind: trace.Compute, Duration: ut})
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("hpl: generated invalid trace: %w", err)
	}
	return t, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(c Config) *trace.Trace {
	t, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return t
}
