package predict_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// TestNewSpecMatrix runs New over every fabric kind, healthy and
// faulted, at Shards 0, 1 and 2. It pins the engine names, holds Shards
// 0 and 1 bitwise to the sequential session of the fabric's legacy
// constructor, and holds Shards 2 to it within float rounding.
func TestNewSpecMatrix(t *testing.T) {
	gs, err := randgen.Schemes(99, 6, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, sub, err := predict.LookupModel("myrinet")
	if err != nil {
		t.Fatal(err)
	}
	ref := sub.RefRate()
	topos := []struct {
		name string
		spec topology.Spec
	}{
		parallelTopos[0],
		parallelTopos[1],
		{"fattree", topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.Block}},
	}
	for _, tp := range topos {
		for _, faulted := range []bool{false, true} {
			var sched fault.Schedule
			var seq *predict.Session
			if faulted {
				sched = parallelSchedule(tp.spec)
				if seq, err = predict.NewSessionWithFaults(m, ref, tp.spec, sched); err != nil {
					t.Fatal(err)
				}
			} else {
				seq = predict.NewSessionWithTopology(m, ref, tp.spec)
			}
			name := "predict-myrinet"
			if !tp.spec.Trivial() {
				name += "-" + tp.name
			}
			if faulted {
				name += "-faulted"
			}
			for _, shards := range []int{0, 1, 2} {
				spec := predict.Spec{Model: m, Ref: ref, Topo: tp.spec, Faults: sched, Shards: shards}
				want := name
				if shards > 1 {
					want = fmt.Sprintf("predict-myrinet-x%d", shards)
				}
				e, err := predict.NewEngine(spec)
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() != want {
					t.Errorf("%s faulted=%v shards %d: engine %q, want %q", tp.name, faulted, shards, e.Name(), want)
				}
				s, err := predict.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				for si, g := range gs {
					exp := append([]float64(nil), seq.Times(g)...)
					got := s.Times(g)
					for i := range exp {
						if shards <= 1 && got[i] != exp[i] || math.Abs(got[i]-exp[i]) > 1e-9*exp[i] {
							t.Fatalf("%s faulted=%v shards %d scheme %d comm %d: %.17g, sequential %.17g",
								tp.name, faulted, shards, si, i, got[i], exp[i])
						}
					}
				}
			}
		}
	}
}

// TestNewSpecHugeNodeIDs: a scheme addressing node ids past the dense
// interning tables (>= 1<<22) routes them through netsim's overflow
// maps, in the sharded core's routing index and in the component
// grouping alike. 2 and 3 shards must still agree bitwise, and stay
// within 1e-9 relative of the sequential session, for every model.
func TestNewSpecHugeNodeIDs(t *testing.T) {
	const h = graph.NodeID(1 << 22)
	b := graph.NewBuilder()
	for i, c := range []struct {
		src, dst graph.NodeID
		vol      float64
	}{
		{0, 1, 8e6}, {0, 2, 3e6}, // one component on dense ids
		{h, 3, 5e6}, {h, 5, 11e6}, // sharing the huge sender's NIC
		{6, h + 7, 7e6}, {2, h + 7, 2e6}, // sharing a huge receiver's NIC
		{h + 9, h + 1, 4e6}, // alone, both ends huge
		{8, 9, 6e6},
	} {
		b.Add(fmt.Sprintf("c%d", i), c.src, c.dst, c.vol)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range predict.ModelNames() {
		m, sub, err := predict.LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := predict.Spec{Model: m, Ref: sub.RefRate()}
		seq, err := predict.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), seq.Times(g)...)
		var par [2][]float64
		for k, shards := range []int{2, 3} {
			spec.Shards = shards
			s, err := predict.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			par[k] = append([]float64(nil), s.Times(g)...)
		}
		for i := range want {
			if par[0][i] != par[1][i] {
				t.Fatalf("%s comm %d: 2 shards %.17g, 3 shards %.17g", name, i, par[0][i], par[1][i])
			}
			if math.Abs(par[0][i]-want[i]) > 1e-9*want[i] {
				t.Fatalf("%s comm %d: sharded %.17g, sequential %.17g", name, i, par[0][i], want[i])
			}
		}
	}
}

// TestNewSpecRejections: every shard count rejects a schedule that does
// not fit the fabric, or that no finite prediction survives, with the
// same error text.
func TestNewSpecRejections(t *testing.T) {
	m, sub, err := predict.LookupModel("gige")
	if err != nil {
		t.Fatal(err)
	}
	star := topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}
	cases := []struct {
		topo  topology.Spec
		sched fault.Schedule
		want  string
	}{
		{
			topology.Spec{},
			fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: 0, At: 1, Until: 2}}},
			"fault: event 0 (link 0 down at 1 until 2): crossbar fabric has no uplinks to fail",
		},
		{
			star,
			fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 16, Factor: 0.5, At: 1}}},
			"fault: event 0 (host 16 slow 0.5 at 1): host 16 does not exist in star 4x4 place block (16 hosts)",
		},
		{
			star,
			fault.Schedule{Events: []fault.Event{
				{Kind: fault.HostSlow, Target: 1, Factor: 0.5, At: 0.1, Until: 0.2},
				{Kind: fault.LinkDown, Target: 2, At: 0.01},
			}},
			"fault: event 1 (link 2 down at 0.01): permanent zero-capacity fault stalls prediction forever; add an until clause",
		},
	}
	for _, c := range cases {
		for _, shards := range []int{0, 1, 2} {
			_, err := predict.New(predict.Spec{Model: m, Ref: sub.RefRate(), Topo: c.topo, Faults: c.sched, Shards: shards})
			if err == nil || err.Error() != c.want {
				t.Errorf("shards %d: error %v, want %q", shards, err, c.want)
			}
		}
	}
}

// FuzzSessionSpec holds the sharded sessions to the sequential one on
// fuzzed fabrics and fault schedules: whenever New accepts the
// sequential spec, Shards 2 and 3 accept it too, agree bitwise with
// each other, and stay within 1e-9 relative of the sequential times.
// The parsed topology and events must round-trip through String.
func FuzzSessionSpec(f *testing.F) {
	f.Add("crossbar", "", uint8(0), int64(1))
	f.Add("crossbar", "host 1 slow 0.5 at 0.003 until 0.06; host 3 slow 0.25 at 0.01", uint8(1), int64(2))
	f.Add("star 4x4", "link 1 down at 0.005 until 0.04", uint8(2), int64(3))
	f.Add("fattree 4x4 oversub 2 place roundrobin", "link 2 degrade 0.25 at 0.01; host 5 slow 0.5 at 0", uint8(3), int64(4))
	f.Add("fattree 2x8 oversub 1.5", "link 0 degrade 0.1 at 0 until 0.02", uint8(4), int64(5))
	f.Add("crossbar", "host 0 slow 0 at 0.01", uint8(0), int64(6))
	f.Add("crossbar", "link 0 down at 1 until 2", uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, topoSrc, faultSrc string, modelIdx uint8, seed int64) {
		topo, err := topology.ParseSpec(topoSrc)
		if err != nil {
			return
		}
		if back, err := topology.ParseSpec(topo.String()); err != nil || back != topo {
			t.Fatalf("topology %q renders as %q, which parses to %+v (%v)", topoSrc, topo, back, err)
		}
		var sched fault.Schedule
		if strings.TrimSpace(faultSrc) != "" {
			for _, src := range strings.Split(faultSrc, ";") {
				e, err := fault.ParseEvent(src)
				if err != nil {
					return
				}
				if back, err := fault.ParseEvent(e.String()); err != nil || back != e {
					t.Fatalf("event %q renders as %q, which parses to %+v (%v)", src, e, back, err)
				}
				sched.Events = append(sched.Events, e)
			}
		}
		names := predict.ModelNames()
		m, sub, err := predict.LookupModel(names[int(modelIdx)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		hosts := topo.Hosts()
		if hosts == 0 || hosts > 64 {
			hosts = 64
		}
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder()
		for i := 0; i < 6; i++ {
			src := rng.Intn(hosts)
			dst := (src + 1 + rng.Intn(hosts-1)) % hosts
			b.Add(fmt.Sprintf("c%d", i), graph.NodeID(src), graph.NodeID(dst), 1e6+19e6*rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		spec := predict.Spec{Model: m, Ref: sub.RefRate(), Topo: topo, Faults: sched}
		seq, seqErr := predict.New(spec)
		var par [2][]float64
		for k, shards := range []int{2, 3} {
			spec.Shards = shards
			s, err := predict.New(spec)
			if (err == nil) != (seqErr == nil) || err != nil && err.Error() != seqErr.Error() {
				t.Fatalf("shards %d: error %v, sequential %v", shards, err, seqErr)
			}
			if err == nil {
				par[k] = append([]float64(nil), s.Times(g)...)
			}
		}
		if seqErr != nil {
			return
		}
		want := seq.Times(g)
		for i := range want {
			if par[0][i] != par[1][i] {
				t.Fatalf("comm %d: 2 shards %.17g, 3 shards %.17g", i, par[0][i], par[1][i])
			}
			if math.Abs(par[0][i]-want[i]) > 1e-9*want[i] {
				t.Fatalf("comm %d: sharded %.17g, sequential %.17g", i, par[0][i], want[i])
			}
		}
	})
}
