package myrinet

import (
	"math"
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/measure"
	"bwshare/internal/schemes"
)

func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

// TestRefRate: per-packet overhead makes the single-flow rate slightly
// below the 250 MB/s line rate.
func TestRefRate(t *testing.T) {
	e := New(DefaultConfig())
	ref := measure.RefRate(e, 20e6)
	if !(ref < 250e6 && ref > 0.95*250e6) {
		t.Fatalf("refRate = %g, want just under the 250e6 line rate", ref)
	}
	if !near(ref, e.RefRate(), 0.01) {
		t.Fatalf("measured ref %g disagrees with declared %g", ref, e.RefRate())
	}
}

// TestSerializationAtSender: the Stop&Go NIC serializes outgoing
// messages, so k outgoing flows cost ~k each (Figure 2 Myrinet column:
// 1.9 for two, 2.8 for three; the DES gives the ideal 2 and 3).
func TestSerializationAtSender(t *testing.T) {
	e := New(DefaultConfig())
	for k, want := range map[int]float64{2: 2, 3: 3, 4: 4} {
		r := measure.Run(e, schemes.Star(k, schemes.Fig2Volume))
		for i, p := range r.Penalties {
			if !near(p, want, 0.02) {
				t.Errorf("star(%d) penalty[%d] = %.3f, want ~%g", k, i, p, want)
			}
		}
	}
}

// TestFig2Column: the whole Myrinet column of Figure 2 within 20% of the
// paper's measurements. The S5/S6 values are the strong validation: the
// head-of-line blocking raises a,b,c to ~4 (paper: 4.2-4.5) while d,e sit
// at 2.5 exactly as the state-set model predicts.
func TestFig2Column(t *testing.T) {
	paper := map[int][]float64{
		1: {1},
		2: {1.9, 1.9},
		3: {2.8, 2.8, 2.8},
		4: {2.8, 2.8, 2.8, 1.45},
		5: {4.4, 4.2, 4.2, 2.5, 2.5},
		6: {4.5, 4.5, 4.5, 2.5, 2.5, 1.3},
	}
	e := New(DefaultConfig())
	for k := 1; k <= 6; k++ {
		r := measure.Run(e, schemes.Fig2(k))
		for i, want := range paper[k] {
			if !near(r.Penalties[i], want, 0.20) {
				t.Errorf("S%d penalty[%d] = %.3f, paper %.3f (tolerance 20%%)", k, i, r.Penalties[i], want)
			}
		}
	}
}

// TestHOLBlocking: adding the flows d,e (which congest receiver 2) must
// slow the star flows a and c even though their own receivers are idle -
// the sender stalls head-of-line while b waits for the busy receiver.
func TestHOLBlocking(t *testing.T) {
	e := New(DefaultConfig())
	s3 := measure.Run(e, schemes.Fig2(3))
	s5 := measure.Run(e, schemes.Fig2(5))
	if !(s5.Penalties[0] > s3.Penalties[0]*1.2) {
		t.Errorf("HOL blocking missing: S5 p(a)=%.3f not >> S3 p(a)=%.3f",
			s5.Penalties[0], s3.Penalties[0])
	}
}

// TestPacketSizeInsensitivity: halving the packet size must not change
// penalties by more than a few percent (the arbitration is fair at any
// granularity).
func TestPacketSizeInsensitivity(t *testing.T) {
	small := DefaultConfig()
	small.PacketBytes = 32 << 10
	rBig := measure.Run(New(DefaultConfig()), schemes.Fig2(5))
	rSmall := measure.Run(New(small), schemes.Fig2(5))
	for i := range rBig.Penalties {
		if !near(rSmall.Penalties[i], rBig.Penalties[i], 0.05) {
			t.Errorf("penalty[%d] varies with packet size: %.3f vs %.3f",
				i, rBig.Penalties[i], rSmall.Penalties[i])
		}
	}
}

// TestLateStartFlow: a flow added mid-run joins arbitration correctly.
func TestLateStartFlow(t *testing.T) {
	e := New(DefaultConfig())
	e.StartFlow(0, 1, 10e6, 0)
	done, now := e.Advance(0.01)
	if len(done) != 0 {
		t.Fatalf("early completion: %v", done)
	}
	e.StartFlow(0, 2, 1e6, now)
	var all []core.Completion
	for {
		d, _ := e.Advance(core.Inf)
		if len(d) == 0 {
			break
		}
		all = append(all, d...)
	}
	if len(all) != 2 {
		t.Fatalf("completions = %v, want 2", all)
	}
	// The short late flow must finish before the long one.
	if !(all[0].Flow == 1 && all[0].Time < all[1].Time) {
		t.Fatalf("late short flow should finish first: %v", all)
	}
}

// TestDeterminism: identical runs agree exactly.
func TestDeterminism(t *testing.T) {
	e := New(DefaultConfig())
	r1 := measure.Run(e, schemes.MK2(schemes.Fig4Volume))
	r2 := measure.Run(e, schemes.MK2(schemes.Fig4Volume))
	for i := range r1.Times {
		if r1.Times[i] != r2.Times[i] {
			t.Fatalf("non-deterministic: comm %d %g vs %g", i, r1.Times[i], r2.Times[i])
		}
	}
}

// TestConservation: total transferred volume implies a lower bound on the
// makespan (a receiver can only absorb LineRate).
func TestConservation(t *testing.T) {
	e := New(DefaultConfig())
	r := measure.Run(e, schemes.Gather(4, schemes.Fig2Volume))
	last := 0.0
	for _, tm := range r.Times {
		if tm > last {
			last = tm
		}
	}
	minTime := 4 * schemes.Fig2Volume / 250e6
	if last < minTime {
		t.Fatalf("makespan %.4f violates receiver capacity bound %.4f", last, minTime)
	}
}

func TestStartFlowValidation(t *testing.T) {
	e := New(DefaultConfig())
	for _, fn := range []func(){
		func() { e.StartFlow(0, 0, 1e6, 0) },                 // self loop
		func() { e.StartFlow(0, 1, -5, 0) },                  // bad volume
		func() { e.Advance(1); e.StartFlow(0, 1, 1e6, 0.5) }, // past
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
		e.Reset()
	}
}

// TestPooledReuseMatchesFreshEngine: the engine recycles des events,
// packet callbacks and flow structs across runs and Resets; a reused
// engine must reproduce a fresh engine's times exactly on every scheme.
func TestPooledReuseMatchesFreshEngine(t *testing.T) {
	reused := New(DefaultConfig())
	for s := 1; s <= 6; s++ {
		fresh := New(DefaultConfig())
		scheme := schemes.Fig2(s)
		a := measure.Run(fresh, scheme)
		b := measure.Run(reused, scheme)
		for c := range a.Times {
			if a.Times[c] != b.Times[c] {
				t.Fatalf("S%d comm %d: fresh %.17g reused %.17g", s, c, a.Times[c], b.Times[c])
			}
		}
	}
}

// TestPooledSteadyStateAllocs: after a warm-up run, repeated runs of the
// same scheme reuse the queue's heap, pooled packets and flows; the
// residual allocations are the per-run bookkeeping (completion slices,
// the result), far below the thousands of packet events dispatched.
func TestPooledSteadyStateAllocs(t *testing.T) {
	e := New(DefaultConfig())
	g := schemes.Fig2(6)
	measure.Run(e, g) // warm pools
	avg := testing.AllocsPerRun(10, func() {
		if r := measure.Run(e, g); len(r.Times) != 6 {
			t.Fatal("bad run")
		}
	})
	// S6 dispatches ~1900 packet events per run; without pooling this
	// sits at ~4000 allocations.
	if avg > 100 {
		t.Errorf("steady-state run allocates %.0f objects, want pooled (< 100)", avg)
	}
}
