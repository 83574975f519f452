package predict_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// specSchedule degrades the fabric mid-replay: two NIC slowdowns and,
// on a fabric, a transient edge-link outage.
func specSchedule(topo topology.Spec) fault.Schedule {
	ev := []fault.Event{
		{Kind: fault.HostSlow, Target: 0, Factor: 0.5, At: 0.003, Until: 0.06},
		{Kind: fault.HostSlow, Target: 3, Factor: 0.25, At: 0.01},
	}
	if !topo.Trivial() {
		ev = append(ev, fault.Event{Kind: fault.LinkDown, Target: 1, At: 0.005, Until: 0.04})
	}
	return fault.Schedule{Events: ev}
}

// TestNewSpecMatrix runs New over every fabric kind, healthy and
// faulted. It pins the engine names and holds each session bitwise to
// the session of the fabric's legacy constructor.
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
		{"crossbar", topology.Spec{}},
		// Block placement makes the random schemes (nodes 0..11) cross
		// switches.
		{"star", topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}},
		{"fattree", topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.Block}},
	}
	for _, tp := range topos {
		for _, faulted := range []bool{false, true} {
			var sched fault.Schedule
			var legacy *predict.Session
			if faulted {
				sched = specSchedule(tp.spec)
				if legacy, err = predict.NewSessionWithFaults(m, ref, tp.spec, sched); err != nil {
					t.Fatal(err)
				}
			} else {
				legacy = predict.NewSessionWithTopology(m, ref, tp.spec)
			}
			want := "predict-myrinet"
			if !tp.spec.Trivial() {
				want += "-" + tp.name
			}
			if faulted {
				want += "-faulted"
			}
			spec := predict.Spec{Model: m, Ref: ref, Topo: tp.spec, Faults: sched}
			e, err := predict.NewEngine(spec)
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() != want {
				t.Errorf("%s faulted=%v: engine %q, want %q", tp.name, faulted, e.Name(), want)
			}
			s, err := predict.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for si, g := range gs {
				exp := append([]float64(nil), legacy.Times(g)...)
				got := s.Times(g)
				for i := range exp {
					if got[i] != exp[i] {
						t.Fatalf("%s faulted=%v scheme %d comm %d: %.17g, legacy %.17g",
							tp.name, faulted, si, i, got[i], exp[i])
					}
				}
			}
		}
	}
}

// TestNewSpecRejections: New rejects a schedule that does not fit the
// fabric, or that no finite prediction survives, naming the event.
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
		_, err := predict.New(predict.Spec{Model: m, Ref: sub.RefRate(), Topo: c.topo, Faults: c.sched})
		if err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
	}
}

// TestNewEngineRefusesAnyEndpointMyrinet: Myrinet under the
// any-endpoint rule (the EXP-A2 ablation) conflicts comms that share no
// sender and no receiver, so its penalties are not component-local and
// the progressive engine refuses it. Its static penalties stay
// available, as EXP-A2 scores it.
func TestNewEngineRefusesAnyEndpointMyrinet(t *testing.T) {
	m := model.Myrinet{Rule: graph.AnyEndpoint, PerSourceMin: true}
	_, err := predict.NewEngine(predict.Spec{Model: m, Ref: 1e8})
	want := "predict: myrinet under the any-endpoint conflict rule is not component-local and has no progressive prediction; use its static penalties"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if _, err := predict.New(predict.Spec{Model: m, Ref: 1e8}); err == nil {
		t.Fatal("New accepted the any-endpoint Myrinet model")
	}
	g := schemes.Fig5()
	static := predict.StaticTimes(g, m, 1e8)
	for i, p := range m.Penalties(g) {
		if want := p * g.Comm(graph.CommID(i)).Volume / 1e8; static[i] != want {
			t.Errorf("comm %d: static time %g, want %g", i, static[i], want)
		}
	}
	if _, err := predict.NewEngine(predict.Spec{Model: model.Myrinet{Rule: graph.SameRole}, Ref: 1e8}); err != nil {
		t.Fatalf("same-role Myrinet without the per-source minimum refused: %v", err)
	}
}

// FuzzSessionSpec holds a reused session to fresh ones on fuzzed
// fabrics and fault schedules: whenever New accepts the spec, a session
// predicting scheme g, then a second scheme, then g again must answer
// each bitwise as a freshly built session does, so Reset rewinds the
// engine and its fault timeline completely. The parsed topology and
// events must round-trip through String.
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
		scheme := func() *graph.Graph {
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
			return g
		}
		g, g2 := scheme(), scheme()
		spec := predict.Spec{Model: m, Ref: sub.RefRate(), Topo: topo, Faults: sched}
		reused, err := predict.New(spec)
		if err != nil {
			return
		}
		fresh := func(g *graph.Graph) []float64 {
			s, err := predict.New(spec)
			if err != nil {
				t.Fatalf("second New of an accepted spec: %v", err)
			}
			return s.Times(g)
		}
		for step, x := range []*graph.Graph{g, g2, g} {
			got := append([]float64(nil), reused.Times(x)...)
			want := fresh(x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("prediction %d, comm %d: reused session %.17g, fresh %.17g", step, i, got[i], want[i])
				}
			}
		}
	})
}
