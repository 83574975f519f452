package netsim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// flowKeys returns the constraint elements f loads on topo, in the
// namespaces of referenceComponents.
func flowKeys(topo topology.Spec, f *Flow) []componentKey {
	keys := []componentKey{{compSender, int(f.Src)}, {compReceiver, int(f.Dst)}}
	if !topo.Trivial() {
		if ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst); ss != ds {
			keys = append(keys, componentKey{compUplink, ss}, componentKey{compDownlink, ds})
		}
	}
	return keys
}

// touchedComponents is the exact definition of DirtyTracker.Dirty: the
// reference components of flows that hold a flow loading an element in
// touched.
func touchedComponents(topo topology.Spec, flows []*Flow, touched map[componentKey]bool) [][]*Flow {
	var out [][]*Flow
	for _, comp := range referenceComponents(topo, flows) {
		hit := false
		for _, f := range comp {
			for _, k := range flowKeys(topo, f) {
				hit = hit || touched[k]
			}
		}
		if hit {
			out = append(out, comp)
		}
	}
	return out
}

// dirtyComponents splits the last Dirty result of tr by its ends.
func dirtyComponents(tr *DirtyTracker, dirty []*Flow) [][]*Flow {
	var out [][]*Flow
	start := int32(0)
	for _, end := range tr.ends {
		out = append(out, dirty[start:end])
		start = end
	}
	return out
}

// sameComponents fails unless got and want hold the same components,
// each one the same set of flows; order is free at both levels.
func sameComponents(t *testing.T, ctx string, got, want [][]*Flow) {
	t.Helper()
	canon := func(comps [][]*Flow) [][]*Flow {
		out := make([][]*Flow, len(comps))
		for i, c := range comps {
			out[i] = slices.SortedFunc(slices.Values(c), func(a, b *Flow) int { return cmp.Compare(a.ID, b.ID) })
		}
		slices.SortFunc(out, func(a, b []*Flow) int { return cmp.Compare(a[0].ID, b[0].ID) })
		return out
	}
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d components, want %d", ctx, len(g), len(w))
	}
	for c := range w {
		if !slices.Equal(g[c], w[c]) {
			t.Fatalf("%s: the component of flow %d differs from the reference (%d flows, want %d)", ctx, w[c][0].ID, len(g[c]), len(w[c]))
		}
	}
}

// checkSlots holds the slot index's lists to the live flows: every live
// flow sits at on[slot[k]][pos[k]] for each of its slots, and the list
// lengths sum to the live flows' slot count.
func checkSlots(t *testing.T, ctx string, x *slotIndex, flows []*Flow) {
	t.Helper()
	want := 0
	for _, f := range flows {
		for k, s := range f.slot {
			if s < 0 {
				continue
			}
			want++
			if p := f.pos[k]; p < 0 || int(p) >= len(x.on[s]) || x.on[s][p] != f {
				t.Fatalf("%s: flow %d is not at position %d of slot %d", ctx, f.ID, p, s)
			}
		}
	}
	got := 0
	for _, l := range x.on {
		got += len(l)
	}
	if got != want {
		t.Fatalf("%s: slot lists hold %d entries, live flows load %d slots", ctx, got, want)
	}
}

// TestDirtyMatchesScan drives a bare tracker through random starts,
// finishes (in the engine's order-preserving way), host and link
// faults and barrier drains on the crossbar, a star and a fat-tree, and
// holds every Dirty, component by component, to the exact definition:
// the reference components of the live flows that load an element
// touched since the last Clean — including a second Dirty before Clean,
// which must repeat the first.
func TestDirtyMatchesScan(t *testing.T) {
	for _, fab := range churnFabrics {
		hosts := fab.spec.Hosts()
		if hosts == 0 {
			hosts = 24
		}
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var tr DirtyTracker
			tr.idx.topo = fab.spec
			tr.ActiveSetReset()
			var flows []*Flow
			touched := make(map[componentKey]bool)
			touch := func(f *Flow) {
				for _, k := range flowKeys(fab.spec, f) {
					touched[k] = true
				}
			}
			id := 0
			for op := 0; op < 2000; op++ {
				ctx := fab.name
				switch r := rng.Float64(); {
				case r < 0.48 || len(flows) == 0:
					src := rng.Intn(hosts)
					dst := (src + 1 + rng.Intn(hosts-1)) % hosts
					f := &Flow{ID: id, Src: graph.NodeID(src), Dst: graph.NodeID(dst), Remaining: 1}
					id++
					flows = append(flows, f)
					tr.FlowStarted(f)
					touch(f)
				case r < 0.93:
					i := rng.Intn(len(flows))
					tr.FlowFinished(flows[i])
					touch(flows[i])
					flows = append(flows[:i], flows[i+1:]...)
				case r < 0.97:
					tg := fault.Target{Kind: fault.TargetHost, ID: rng.Intn(hosts)}
					keys := []componentKey{{compSender, tg.ID}, {compReceiver, tg.ID}}
					if !fab.spec.Trivial() && rng.Intn(2) == 0 {
						tg = fault.Target{Kind: fault.TargetLink, ID: rng.Intn(fab.spec.Switches)}
						keys = []componentKey{{compUplink, tg.ID}, {compDownlink, tg.ID}}
					}
					for _, k := range keys {
						touched[k] = true
					}
					tr.FaultTargetsChanged([]fault.Target{tg})
				default: // barrier: everything drains at once
					for len(flows) > 0 {
						tr.FlowFinished(flows[len(flows)-1])
						touch(flows[len(flows)-1])
						flows = flows[:len(flows)-1]
					}
				}
				if len(flows) == 0 || rng.Intn(3) == 0 {
					continue // let marks pile up across events
				}
				want := touchedComponents(fab.spec, flows, touched)
				got := append([]*Flow(nil), tr.Dirty(flows)...)
				sameComponents(t, ctx+" dirty", dirtyComponents(&tr, got), want)
				checkSlots(t, ctx, &tr.idx, flows)
				if rng.Intn(4) == 0 && !slices.Equal(tr.Dirty(flows), got) {
					t.Fatalf("%s: a repeated Dirty before Clean differs from the first", ctx)
				}
				if len(got) > 0 {
					tr.Clean()
					clear(touched)
				}
			}
		}
	}
}

// TestDirtySteadyStateZeroAllocs: once warm, a start/finish/Dirty/Clean
// cycle — marks, slot lists and walks — allocates nothing.
func TestDirtySteadyStateZeroAllocs(t *testing.T) {
	var tr DirtyTracker
	tr.ActiveSetReset()
	const live = 48
	flows := make([]*Flow, 0, live+1)
	pool := make([]*Flow, 0, live+1)
	id := 0
	start := func() {
		var f *Flow
		if n := len(pool); n > 0 {
			f, pool = pool[n-1], pool[:n-1]
		} else {
			f = new(Flow)
		}
		*f = Flow{ID: id, Src: graph.NodeID(id % 40), Dst: graph.NodeID((id*7 + 3) % 40), Remaining: 1}
		if f.Dst == f.Src {
			f.Dst = (f.Dst + 1) % 40
		}
		id++
		flows = append(flows, f)
		tr.FlowStarted(f)
	}
	cycle := func() {
		start()
		old := flows[0]
		tr.FlowFinished(old)
		flows = append(flows[:0], flows[1:]...)
		pool = append(pool, old)
		if d := tr.Dirty(flows); len(d) > 0 {
			tr.Clean()
		}
	}
	for len(flows) < live {
		start()
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Errorf("tracker cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}
