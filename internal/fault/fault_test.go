package fault

import (
	"runtime"
	"strings"
	"testing"

	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

func fattree(switches, hosts int) topology.Spec {
	return topology.Spec{Kind: topology.FatTree, Switches: switches, HostsPerSwitch: hosts, Oversub: 2}
}

func TestEventStringParseRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: LinkDown, Target: 2, At: 0.05, Until: 0.12},
		{Kind: LinkDown, Target: 0, At: 0},
		{Kind: LinkDegrade, Target: 1, Factor: 0.5, At: 0.1},
		{Kind: LinkDegrade, Target: 3, Factor: 0, At: -1, Until: 2},
		{Kind: HostSlow, Target: 7, Factor: 0.25, At: 1.5, Until: 3.25},
	}
	for _, e := range events {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got != e {
			t.Errorf("round trip %q: got %+v want %+v", e.String(), got, e)
		}
	}
}

func TestParseEventErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"", "empty"},
		{"link 0 down at 1 until 1", "precedes"},
		{"link 0 down at 2 until 1", "precedes"},
		{"host 3 slow 0.5 at 5 until 0", "reserved"},
		{"link -1 down at 0", "invalid link index"},
		{"link 0 explode at 0", "unknown link fault"},
		{"switch 0 down at 0", "unknown subject"},
		{"link 0 degrade 1.5 at 0", "factor"},
		{"host 0 slow NaN at 0", "factor"},
		{"link 0 down", "expected 'at"},
		{"link 0 down at Inf", "finite"},
		{"link 0 down at 0 whenever 3", "expected 'until"},
		{"link 0 down 0.5 at 0", "expected 'at"},
	}
	for _, c := range cases {
		if _, err := ParseEvent(c.src); err == nil {
			t.Errorf("ParseEvent(%q): expected error", c.src)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseEvent(%q) error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestValidateAgainstTopology(t *testing.T) {
	ft := fattree(4, 4) // hosts 0..15
	ok := Schedule{Events: []Event{
		{Kind: LinkDown, Target: 3, At: 1},
		{Kind: HostSlow, Target: 15, Factor: 0.5, At: 0},
	}}
	if err := ok.Validate(ft); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		topo topology.Spec
		s    Schedule
		sub  string
	}{
		{"link on crossbar", topology.Spec{}, Schedule{Events: []Event{{Kind: LinkDown, At: 1}}}, "no uplinks"},
		{"missing switch", ft, Schedule{Events: []Event{{Kind: LinkDown, Target: 4, At: 1}}}, "switch 4 does not exist"},
		{"missing host", ft, Schedule{Events: []Event{{Kind: HostSlow, Target: 16, Factor: 0.5, At: 1}}}, "host 16 does not exist"},
		{"repair before failure", ft, Schedule{Events: []Event{{Kind: LinkDown, Target: 0, At: 2, Until: 1}}}, "precedes"},
		{"factor out of range", ft, Schedule{Events: []Event{{Kind: LinkDegrade, Target: 0, Factor: 1.5, At: 1}}}, "factor"},
	}
	for _, c := range cases {
		err := c.s.Validate(c.topo)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), c.sub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.sub)
		}
	}
	// Crossbar hosts are unbounded: any non-negative host id is fine.
	hostOnly := Schedule{Events: []Event{{Kind: HostSlow, Target: 1 << 20, Factor: 0.5, At: 1}}}
	if err := hostOnly.Validate(topology.Spec{}); err != nil {
		t.Fatalf("crossbar host fault rejected: %v", err)
	}
}

func TestCompileFoldsPreZeroFaults(t *testing.T) {
	tl := Compile(Schedule{Events: []Event{
		{Kind: HostSlow, Target: 1, Factor: 0.5, At: -3},               // active before the replay starts
		{Kind: LinkDegrade, Target: 0, Factor: 0.25, At: -1, Until: 2}, // repairs mid-replay
	}})
	st := tl.State()
	if got := st.HostFactor(1); got != 0.5 {
		t.Fatalf("pre-zero host fault not folded: factor %g", got)
	}
	if got := st.LinkFactor(0); got != 0.25 {
		t.Fatalf("pre-zero link fault not folded: factor %g", got)
	}
	if tl.Steps() != 1 {
		t.Fatalf("want exactly the repair step, got %d steps", tl.Steps())
	}
	at, ok := tl.Next()
	if !ok || at != 2 {
		t.Fatalf("next change: got (%g, %v) want (2, true)", at, ok)
	}
	changed := tl.Step()
	if len(changed) != 1 || changed[0] != (Target{TargetLink, 0}) {
		t.Fatalf("repair step changed %v", changed)
	}
	if got := st.LinkFactor(0); got != 1 {
		t.Fatalf("link not repaired: factor %g", got)
	}
	if got := st.HostFactor(1); got != 0.5 {
		t.Fatalf("permanent host fault lost on step: factor %g", got)
	}
}

func TestCompileDoubleFailureOverlap(t *testing.T) {
	// Two downs of the same link, overlapping: the first repair (t=10)
	// must NOT revive the link; only the last (t=15) does.
	tl := Compile(Schedule{Events: []Event{
		{Kind: LinkDown, Target: 0, At: 1, Until: 10},
		{Kind: LinkDown, Target: 0, At: 5, Until: 15},
	}})
	if tl.Steps() != 2 {
		t.Fatalf("want 2 visible change points (down at 1, up at 15), got %d", tl.Steps())
	}
	if at, _ := tl.Next(); at != 1 {
		t.Fatalf("first change at %g, want 1", at)
	}
	tl.Step()
	if got := tl.State().LinkFactor(0); got != 0 {
		t.Fatalf("link factor after failure: %g", got)
	}
	if at, _ := tl.Next(); at != 15 {
		t.Fatalf("second change at %g, want 15 (t=5 and t=10 are invisible)", at)
	}
	tl.Step()
	if got := tl.State().LinkFactor(0); got != 1 {
		t.Fatalf("link factor after last repair: %g", got)
	}
	if _, ok := tl.Next(); ok {
		t.Fatal("timeline should be exhausted")
	}
}

func TestCompileOverlapMultiplies(t *testing.T) {
	tl := Compile(Schedule{Events: []Event{
		{Kind: LinkDegrade, Target: 0, Factor: 0.5, At: 1, Until: 4},
		{Kind: LinkDegrade, Target: 0, Factor: 0.5, At: 2, Until: 3},
	}})
	want := []struct{ at, factor float64 }{{1, 0.5}, {2, 0.25}, {3, 0.5}, {4, 1}}
	if tl.Steps() != len(want) {
		t.Fatalf("steps = %d, want %d", tl.Steps(), len(want))
	}
	for _, w := range want {
		at, _ := tl.Next()
		if at != w.at {
			t.Fatalf("change at %g, want %g", at, w.at)
		}
		tl.Step()
		if got := tl.State().LinkFactor(0); got != w.factor {
			t.Fatalf("t=%g: factor %g, want %g", w.at, got, w.factor)
		}
	}
}

func TestNilStateReadsHealthy(t *testing.T) {
	var st *State
	if st.LinkFactor(3) != 1 || st.HostFactor(0) != 1 {
		t.Fatal("nil state must read as healthy")
	}
	tl := Compile(Schedule{})
	if tl.Steps() != 0 {
		t.Fatalf("empty schedule compiled to %d steps", tl.Steps())
	}
	if tl.State().LinkFactor(0) != 1 || tl.State().HostFactor(9) != 1 {
		t.Fatal("empty timeline state must read as healthy")
	}
}

func TestRewindStepZeroAllocs(t *testing.T) {
	tl := Compile(Schedule{Events: []Event{
		{Kind: LinkDown, Target: 1, At: 1, Until: 2},
		{Kind: HostSlow, Target: 3, Factor: 0.5, At: 1.5},
	}})
	allocs := testing.AllocsPerRun(100, func() {
		tl.Rewind()
		for {
			if _, ok := tl.Next(); !ok {
				break
			}
			tl.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("rewind/step cycle allocates %g/op, want 0", allocs)
	}
}

// denseSnapshot is the compile oracle: every factor of the fabric at
// time t, recomputed from the whole schedule into tables sized by the
// largest target id.
func denseSnapshot(sched Schedule, nLink, nHost int, t float64) (link, host []float64) {
	link, host = make([]float64, nLink), make([]float64, nHost)
	for i := range link {
		link[i] = 1
	}
	for i := range host {
		host[i] = 1
	}
	for _, e := range sched.Events {
		if !e.activeAt(t) {
			continue
		}
		if e.Kind == HostSlow {
			host[e.Target] *= e.Factor
		} else {
			link[e.Target] *= e.Factor
		}
	}
	return link, host
}

// TestCompileMatchesDenseSnapshots holds the compiled timeline bitwise
// to dense snapshots over seeded schedules mixing overlapping link and
// host faults: the initial state after every Rewind, each change time,
// each step's changed targets (links first, then hosts, by id) and
// every factor after each step.
func TestCompileMatchesDenseSnapshots(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := randgen.NewRand(1900 + seed)
		sched := RandomLinks(rng, 4, 1+rng.IntN(12), 1)
		for i := rng.IntN(10); i > 0; i-- {
			e := Event{Kind: HostSlow, Target: rng.IntN(9), Factor: float64(rng.IntN(4)) / 4, At: float64(rng.IntN(6)) / 4}
			if rng.IntN(3) != 0 {
				e.Until = e.At + float64(1+rng.IntN(4))/4
			}
			sched.Events = append(sched.Events, e)
		}
		nLink, nHost := 0, 0
		for _, e := range sched.Events {
			if e.Kind == HostSlow {
				nHost = max(nHost, e.Target+1)
			} else {
				nLink = max(nLink, e.Target+1)
			}
		}
		tl := Compile(sched)
		st := tl.State()
		check := func(when float64, at string) {
			t.Helper()
			link, host := denseSnapshot(sched, nLink, nHost, when)
			for i := range link {
				if got := st.LinkFactor(i); got != link[i] {
					t.Fatalf("seed %d, %s: link %d factor %v, want %v", seed, at, i, got, link[i])
				}
			}
			for i := range host {
				if got := st.HostFactor(i); got != host[i] {
					t.Fatalf("seed %d, %s: host %d factor %v, want %v", seed, at, i, got, host[i])
				}
			}
		}
		for pass := 0; pass < 2; pass++ {
			tl.Rewind()
			check(0, "rewind")
			prevLink, prevHost := denseSnapshot(sched, nLink, nHost, 0)
			for {
				at, ok := tl.Next()
				if !ok {
					break
				}
				link, host := denseSnapshot(sched, nLink, nHost, at)
				var want []Target
				for i := range link {
					if link[i] != prevLink[i] {
						want = append(want, Target{TargetLink, i})
					}
				}
				for i := range host {
					if host[i] != prevHost[i] {
						want = append(want, Target{TargetHost, i})
					}
				}
				got := tl.Step()
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("seed %d, t=%g: step changed %v, want %v", seed, at, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d, t=%g: step changed %v, want %v", seed, at, got, want)
					}
				}
				check(at, "step")
				prevLink, prevHost = link, host
			}
		}
	}
}

// TestCompileAllocationBounded: a timeline stores per step only the
// targets that changed, so a schedule of 256 host slowdowns on hosts
// below 1<<16 (the serving layer's limits on events and node ids),
// each at its own change times, compiles in well under 4 MB. Dense
// per-step snapshots needed 513 copies of a 65536-host table, over
// 260 MB.
func TestCompileAllocationBounded(t *testing.T) {
	var sched Schedule
	for i := 0; i < 256; i++ {
		sched.Events = append(sched.Events, Event{
			Kind: HostSlow, Target: 1<<16 - 1 - 97*i, Factor: 0.5,
			At: float64(i + 1), Until: float64(i + 1000),
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tl := Compile(sched)
	runtime.ReadMemStats(&after)
	if tl.Steps() != 512 {
		t.Fatalf("steps = %d, want 512", tl.Steps())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("Compile allocated %d bytes, want under 4 MB", got)
	}
}

// TestCompileHugeHostBounded: a crossbar accepts any host id, so
// "host 4194304 slow 0.5 at 0.01" is a valid schedule. Its timeline
// must not size a dense host table by that id (33.6 MB at 8 bytes a
// host): Compile stays under 1 MB, and the host reads 1 before the
// fault and 0.5 after it, its neighbours healthy throughout.
func TestCompileHugeHostBounded(t *testing.T) {
	e, err := ParseEvent("host 4194304 slow 0.5 at 0.01")
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Events: []Event{e, {Kind: HostSlow, Target: 3, Factor: 0.25, At: 0.02}}}
	if err := sched.Validate(topology.Spec{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tl := Compile(sched)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Compile allocated %d bytes, want under 1 MB", got)
	}
	st := tl.State()
	if st.HostFactor(4194304) != 1 || st.HostFactor(3) != 1 {
		t.Fatalf("factors before the faults: %g, %g; want 1, 1", st.HostFactor(4194304), st.HostFactor(3))
	}
	tl.Step()
	tl.Step()
	if st.HostFactor(4194304) != 0.5 || st.HostFactor(3) != 0.25 {
		t.Fatalf("factors after the faults: %g, %g; want 0.5, 0.25", st.HostFactor(4194304), st.HostFactor(3))
	}
	for _, h := range []int{4, 65535, 65536, 4194303, 4194305} {
		if f := st.HostFactor(h); f != 1 {
			t.Errorf("host %d reads %g, want 1", h, f)
		}
	}
	tl.Rewind()
	if st.HostFactor(4194304) != 1 {
		t.Fatalf("Rewind left host 4194304 at %g", st.HostFactor(4194304))
	}
}

func TestHashEqualClone(t *testing.T) {
	a := Schedule{Events: []Event{{Kind: LinkDown, Target: 1, At: 1, Until: 2}}}
	b := a.Clone()
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatal("clone must compare and hash equal")
	}
	b.Events[0].Until = 3
	if a.Equal(b) || a.Hash() == b.Hash() {
		t.Fatal("mutated clone must differ (deep copy + hash sensitivity)")
	}
	if (Schedule{}).Hash() != 0 {
		t.Fatal("empty schedule must hash to 0 (healthy cache keys unchanged)")
	}
	if a.Equal(Schedule{}) {
		t.Fatal("non-empty schedule equal to empty")
	}
	if got := a.Canonical(); got != "link 1 down at 1 until 2\n" {
		t.Fatalf("canonical form %q", got)
	}
}

func TestRandomLinksDeterministicAndValid(t *testing.T) {
	topo := fattree(4, 8)
	a := RandomLinks(randgen.NewRand(42), topo.Switches, 6, 0.5)
	b := RandomLinks(randgen.NewRand(42), topo.Switches, 6, 0.5)
	if !a.Equal(b) {
		t.Fatal("equal seeds must yield identical schedules")
	}
	if a.Empty() || len(a.Events) != 6 {
		t.Fatalf("want 6 events, got %d", len(a.Events))
	}
	if err := a.Validate(topo); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c := RandomLinks(randgen.NewRand(43), topo.Switches, 6, 0.5)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical schedules")
	}
}
