package predict_test

import (
	"math"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// parallelTopos are the fabric variants the differential matrix runs
// on: the paper's crossbar and a 4x4 star whose block placement makes
// the random schemes (nodes 0..11) cross switches.
var parallelTopos = []struct {
	name string
	spec topology.Spec
}{
	{"crossbar", topology.Spec{}},
	{"star", topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}},
}

// parallelSchedule degrades the fabric mid-replay: two NIC slowdowns
// and, on a fabric, a transient edge-link outage.
func parallelSchedule(topo topology.Spec) fault.Schedule {
	ev := []fault.Event{
		{Kind: fault.HostSlow, Target: 0, Factor: 0.5, At: 0.003, Until: 0.06},
		{Kind: fault.HostSlow, Target: 3, Factor: 0.25, At: 0.01},
	}
	if !topo.Trivial() {
		ev = append(ev, fault.Event{Kind: fault.LinkDown, Target: 1, At: 0.005, Until: 0.04})
	}
	return fault.Schedule{Events: ev}
}

// TestSessionParallelBitIdenticalAcrossShardCounts: a parallel session
// at 3 and 8 shards must predict exactly what the 2-shard session
// predicts, per model, per fabric, across seeded schemes, with and
// without a fault schedule. This is the predict-layer face of the
// engine determinism contract.
func TestSessionParallelBitIdenticalAcrossShardCounts(t *testing.T) {
	gs, err := randgen.Schemes(97, 20, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range predict.ModelNames() {
		m, sub, err := predict.LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := sub.RefRate()
		for _, tp := range parallelTopos {
			for _, faulted := range []bool{false, true} {
				sched := fault.Schedule{}
				if faulted {
					sched = parallelSchedule(tp.spec)
				}
				spec := predict.Spec{Model: m, Ref: ref, Topo: tp.spec, Faults: sched, Shards: 2}
				base, err := predict.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{3, 8} {
					spec.Shards = k
					par, err := predict.New(spec)
					if err != nil {
						t.Fatal(err)
					}
					for si, g := range gs {
						want := append([]float64(nil), base.Times(g)...)
						got := par.Times(g)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s/%s faulted=%v scheme %d shards %d comm %d: %.17g != 2-shard %.17g",
									name, tp.name, faulted, si, k, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestSessionParallelMatchesSequential: the parallel session evaluates
// the model per constraint component while the sequential session
// scores the whole active graph at once. For the registry's
// component-local models the arithmetic operands coincide, but the
// integration steps group differently, so the comparison is
// near-exact rather than bitwise.
func TestSessionParallelMatchesSequential(t *testing.T) {
	gs, err := randgen.Schemes(98, 12, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	for _, name := range predict.ModelNames() {
		m, sub, err := predict.LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := sub.RefRate()
		for _, tp := range parallelTopos {
			seq := predict.NewSessionWithTopology(m, ref, tp.spec)
			par, err := predict.New(predict.Spec{Model: m, Ref: ref, Topo: tp.spec, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			for si, g := range gs {
				want := append([]float64(nil), seq.Times(g)...)
				got := par.Times(g)
				for i := range want {
					if diff := math.Abs(got[i] - want[i]); diff > tol*math.Max(1, want[i]) {
						t.Fatalf("%s/%s scheme %d comm %d: parallel %.17g vs sequential %.17g (diff %g)",
							name, tp.name, si, i, got[i], want[i], diff)
					}
				}
			}
		}
	}
}

// TestSessionParallelDefaultsAndRejections: Shards 0 selects a usable
// (sequential) session, and invalid fault schedules are rejected
// exactly like the sequential faulted session.
func TestSessionParallelDefaultsAndRejections(t *testing.T) {
	m, sub, err := predict.LookupModel("gige")
	if err != nil {
		t.Fatal(err)
	}
	s, err := predict.New(predict.Spec{Model: m, Ref: sub.RefRate()})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewBuilder().Add("a", 0, 1, 4e6).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Times(g)[0]; got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("default-shard session predicted %g", got)
	}
	bad := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 0, Factor: 0, At: 1}}}
	if _, err := predict.New(predict.Spec{Model: m, Ref: sub.RefRate(), Faults: bad, Shards: 2}); err == nil {
		t.Fatal("permanent zero-capacity schedule accepted")
	}
}
