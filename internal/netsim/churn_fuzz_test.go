package netsim

import (
	"strings"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
)

// FuzzIncrementalChurn drives fuzzed churn — flows starting at fuzzed
// times, the completions they cause, and a schedule of fault.ParseEvent
// events — on each fabric of churnFabrics. A sequential engine on
// IncrementalAllocator must complete every flow at exactly the time a
// sequential engine on the map-based oracle (componentOracle) does.
// ops is read four bytes per flow: arrival
// gap in milliseconds, source, destination and volume. On a crossbar,
// where any id is a host, every fourth node id is moved past the dense
// interning tables (>= maxDenseNode), so the overflow maps are fuzzed
// too.
func FuzzIncrementalChurn(f *testing.F) {
	f.Add(uint8(0), uint8(0), "", []byte{0, 0, 1, 40, 0, 2, 3, 10, 3, 1, 4, 90, 0, 5, 1, 7})
	f.Add(uint8(0), uint8(1), "host 1 slow 0.5 at 0.003 until 0.06; host 3 slow 0 at 0.01 until 0.02", []byte{0, 1, 3, 200, 1, 3, 1, 20, 0, 1, 2, 5, 9, 4, 5, 60})
	f.Add(uint8(1), uint8(0), "link 1 down at 0.005 until 0.04", []byte{0, 0, 5, 120, 0, 1, 6, 30, 2, 4, 9, 80, 0, 12, 2, 15, 1, 0, 13, 44})
	f.Add(uint8(2), uint8(1), "link 2 degrade 0.25 at 0.01; host 5 slow 0.5 at 0", []byte{0, 0, 1, 255, 0, 2, 9, 17, 0, 5, 14, 99, 4, 9, 2, 3, 0, 7, 5, 128, 30, 1, 0, 64})
	f.Fuzz(func(t *testing.T, fabric, substrate uint8, faultSrc string, ops []byte) {
		fab := churnFabrics[int(fabric)%len(churnFabrics)]
		cfg := churnSubstrates[int(substrate)%len(churnSubstrates)].cfg
		cfg.Topo = fab.spec
		var sched fault.Schedule
		if strings.TrimSpace(faultSrc) != "" {
			for _, src := range strings.Split(faultSrc, ";") {
				e, err := fault.ParseEvent(src)
				if err != nil {
					return
				}
				sched.Events = append(sched.Events, e)
			}
		}
		// A permanent zero-capacity fault stalls its flows forever, so
		// the replay would never drain.
		if sched.Validate(fab.spec) != nil || sched.PermanentZero() >= 0 {
			return
		}
		hosts := fab.spec.Hosts()
		if hosts == 0 {
			hosts = 16
		}
		node := func(n int) graph.NodeID {
			if fab.spec.Trivial() && n%4 == 3 {
				return graph.NodeID(maxDenseNode + n)
			}
			return graph.NodeID(n)
		}
		var arrivals []arrival
		at := 0.0
		for i := 0; i+4 <= len(ops) && len(arrivals) < 160; i += 4 {
			at += float64(ops[i]) * 1e-3
			src := int(ops[i+1]) % hosts
			dst := (src + 1 + int(ops[i+2])%(hosts-1)) % hosts
			vol := 1e5 * (1 + float64(ops[i+3]))
			arrivals = append(arrivals, arrival{at: at, src: node(src), dst: node(dst), vol: vol})
		}
		if len(arrivals) == 0 {
			return
		}
		inc := runCollect(t, faultedEngine("inc", cfg, sched, false), arrivals)
		ref := runCollect(t, faultedEngine("ref", cfg, sched, true), arrivals)
		if len(inc) != len(arrivals) || len(ref) != len(arrivals) {
			t.Fatalf("drained %d (incremental) and %d (oracle) of %d flows", len(inc), len(ref), len(arrivals))
		}
		for id, want := range ref {
			if got := inc[id]; got != want {
				t.Fatalf("flow %d: incremental completes at %.17g, oracle at %.17g", id, got, want)
			}
		}
	})
}
