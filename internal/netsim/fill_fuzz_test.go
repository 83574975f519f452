package netsim

import (
	"math"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// FuzzWaterFill holds both callers of the progressive fill to their
// map-based oracles, bit for bit: coupledDenseAllocate to
// referenceCoupledTopoAllocate and TopoFiller to referenceCapsFill. The
// fabric is the crossbar or one of topoSpecs, the substrate one of
// substrateConfigs. flows is read three bytes per flow: source,
// destination and the TopoFiller cap in 64ths of an uplink (so equal
// bytes give equal caps, 0 a zero cap and anything past 64 a cap above
// the link's capacity). hosts and links give per-host NIC and per-switch
// uplink capacity factors in 255ths, applied as faults at t = 0.
func FuzzWaterFill(f *testing.F) {
	// Seeds: the schemes of the differential tests on every fabric, and
	// the hand-sized uplink scenarios of topo_test.go.
	for _, seed := range []int64{1, 6, 9} {
		schemes, err := randgen.Schemes(seed, 4, randgen.DefaultSchemeConfig())
		if err != nil {
			f.Fatal(err)
		}
		for si, g := range schemes {
			var flows []byte
			for _, c := range g.Comms() {
				flows = append(flows, byte(c.Src), byte(c.Dst), byte(16*si+int(c.ID)))
			}
			for fab := 0; fab <= len(topoSpecs); fab++ {
				f.Add(uint8(fab), uint8(si), flows, []byte(nil), []byte(nil))
			}
			f.Add(uint8(si+1), uint8(si), flows, []byte{255, 128, 0, 200}, []byte{64, 255, 0})
		}
	}
	f.Add(uint8(1), uint8(0), []byte{0, 3, 80, 1, 4, 40, 0, 1, 90}, []byte(nil), []byte{255})
	f.Fuzz(func(t *testing.T, fabric, substrate uint8, flows, hosts, links []byte) {
		var spec topology.Spec
		if k := int(fabric) % (len(topoSpecs) + 1); k > 0 {
			spec = topoSpecs[k-1]
		}
		cfg := substrateConfigs[int(substrate)%len(substrateConfigs)].cfg
		cfg.Topo = spec
		nhosts := spec.Hosts()
		if nhosts == 0 {
			nhosts = 16
		}
		var sched fault.Schedule
		for h, b := range hosts[:min(len(hosts), nhosts)] {
			sched.Events = append(sched.Events, fault.Event{Kind: fault.HostSlow, Target: h, Factor: float64(b) / 255})
		}
		if !spec.Trivial() {
			for sw, b := range links[:min(len(links), spec.Switches)] {
				sched.Events = append(sched.Events, fault.Event{Kind: fault.LinkDegrade, Target: sw, Factor: float64(b) / 255})
			}
		}
		if err := sched.Validate(spec); err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fault.Compile(sched).State()

		n := min(len(flows)/3, 64)
		if n == 0 {
			return
		}
		mk := func() []*Flow {
			fs := make([]*Flow, n)
			for i := range fs {
				src, dst := int(flows[3*i])%nhosts, int(flows[3*i+1])%nhosts
				if src == dst {
					dst = (dst + 1) % nhosts
				}
				fs[i] = &Flow{ID: i, Src: graph.NodeID(src), Dst: graph.NodeID(dst)}
			}
			return fs
		}
		same := func(what string, a, b []*Flow) {
			t.Helper()
			for i := range a {
				if math.Float64bits(a[i].Rate) != math.Float64bits(b[i].Rate) {
					t.Fatalf("%s on %s, flow %d (%d->%d): dense %.17g ref %.17g",
						what, spec, i, a[i].Src, a[i].Dst, a[i].Rate, b[i].Rate)
				}
			}
		}

		var sc wholeFill
		a, b := mk(), mk()
		denseAllocate(cfg, a, &sc)
		referenceCoupledTopoAllocate(cfg, b)
		same("coupled fill", a, b)

		linkCap := spec.UplinkCap(cfg.FlowCap)
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = linkCap * float64(flows[3*i+2]) / 64
		}
		a, b = mk(), mk()
		for i := range a {
			a[i].Rate, b[i].Rate = caps[i], caps[i]
		}
		tf := TopoFiller{Faults: cfg.Faults}
		tf.Apply(a, spec, cfg.FlowCap)
		referenceCapsFill(b, caps, spec, linkCap, cfg.Faults)
		same("cap-only fill", a, b)
	})
}
