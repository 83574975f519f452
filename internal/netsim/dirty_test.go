package netsim

import (
	"math/rand"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
)

// scanDirty is the linear-scan definition of DirtyTracker.Dirty, kept
// as the oracle of the member-list gathering: every flow, in slice
// order, whose component root carries a stamp newer than seen.
func scanDirty(t *DirtyTracker, flows []*Flow) []*Flow {
	var out []*Flow
	for _, f := range flows {
		if t.idx.touch[t.idx.root(f)] > t.seen {
			out = append(out, f)
		}
	}
	return out
}

// checkMembers holds the slot index's member lists to the live flows:
// each flow sits in the circular list of its root, every list is
// doubly linked, and every list's length is its root's live count.
func checkMembers(t *testing.T, ctx string, x *slotIndex, flows []*Flow) {
	t.Helper()
	size := make(map[int32]int32)
	for s, h := range x.members {
		for f := h; f != nil; {
			size[int32(s)]++
			if f.next.prev != f {
				t.Fatalf("%s: slot %d list is broken at flow %d", ctx, s, f.ID)
			}
			if f = f.next; f == h {
				break
			}
		}
	}
	count := make(map[int32]int32)
	for _, f := range flows {
		r := x.root(f)
		count[r]++
		found := false
		for g := x.members[r]; ; {
			if g == f {
				found = true
			}
			if g = g.next; g == x.members[r] {
				break
			}
		}
		if !found {
			t.Fatalf("%s: flow %d is not on its component's member list", ctx, f.ID)
		}
	}
	for s := range x.members {
		if size[int32(s)] != count[int32(s)] {
			t.Fatalf("%s: slot %d lists %d members, %d live", ctx, s, size[int32(s)], count[int32(s)])
		}
	}
}

// TestDirtyMatchesScan drives a bare tracker through random starts,
// finishes (in the engine's order-preserving way), host and link
// faults, barrier drains and compactions on the crossbar, a star and a
// fat-tree, and holds every Dirty to the linear-scan definition —
// including a second Dirty before Clean, which must repeat the first.
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
				case r < 0.93:
					i := rng.Intn(len(flows))
					tr.FlowFinished(flows[i])
					flows = append(flows[:i], flows[i+1:]...)
				case r < 0.97:
					tg := fault.Target{Kind: fault.TargetHost, ID: rng.Intn(hosts)}
					if !fab.spec.Trivial() && rng.Intn(2) == 0 {
						tg = fault.Target{Kind: fault.TargetLink, ID: rng.Intn(fab.spec.Switches)}
					}
					tr.FaultTargetsChanged([]fault.Target{tg})
				default: // barrier: everything drains at once
					for len(flows) > 0 {
						tr.FlowFinished(flows[len(flows)-1])
						flows = flows[:len(flows)-1]
					}
				}
				if len(flows) == 0 || rng.Intn(3) == 0 {
					continue // let marks pile up across events
				}
				want := scanDirty(&tr, flows)
				got := append([]*Flow(nil), tr.Dirty(flows)...)
				sameFlows(t, ctx+" dirty", got, want)
				checkMembers(t, ctx, &tr.idx, flows)
				if rng.Intn(4) == 0 {
					sameFlows(t, ctx+" repeated dirty", tr.Dirty(flows), want)
				}
				if len(got) > 0 {
					tr.Clean()
				}
			}
		}
	}
}

// TestMemberListsComplete links flows in shuffled ID order, so unions
// splice lists of interleaved ids, and removes some, and the member
// lists must stay complete throughout.
func TestMemberListsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		var x slotIndex
		ids := rng.Perm(60)
		var live []*Flow
		for _, id := range ids {
			src := rng.Intn(30)
			f := &Flow{ID: id, Src: graph.NodeID(src), Dst: graph.NodeID((src + 1 + rng.Intn(29)) % 30)}
			x.link(f)
			live = append(live, f)
			if rng.Intn(4) == 0 {
				i := rng.Intn(len(live))
				x.remove(live[i], x.root(live[i]))
				live = append(live[:i], live[i+1:]...)
			}
			checkMembers(t, "shuffled", &x, live)
		}
	}
}

func sameFlows(t *testing.T, ctx string, got, want []*Flow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d flows, scan has %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds flow %d, scan has %d", ctx, i, got[i].ID, want[i].ID)
		}
	}
}

// TestDirtySteadyStateZeroAllocs: once warm, a start/finish/Dirty/Clean
// cycle — marks, member lists, gathering, sorting and compaction —
// allocates nothing.
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
	for i := 0; i < 4*compactionFloor; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Errorf("tracker cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}
