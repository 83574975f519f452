package fault

import "sort"

// TargetKind distinguishes the two fabric resources a fault can touch.
type TargetKind uint8

// Target kinds.
const (
	// TargetLink is an edge switch's uplink (both directions).
	TargetLink TargetKind = iota
	// TargetHost is one host's NIC (send and receive).
	TargetHost
)

// Target names one fabric resource whose capacity factor changed.
type Target struct {
	Kind TargetKind
	ID   int
}

// State is the mutable capacity overlay the allocators read: one factor
// per edge switch uplink and one per host NIC, each in [0, 1]. A nil
// State, or any index beyond the tracked range, reads as the healthy
// factor 1 — multiplying a capacity by exactly 1.0 is IEEE-exact, so the
// no-fault paths stay bit-identical with unconditional multiplies.
//
// A State is owned and mutated in place by its Timeline; allocators
// holding the pointer observe every Step without re-wiring.
type State struct {
	link []float64
	host []float64 // named hosts below maxDenseHost, by id
	// hostBig holds the named hosts at or past maxDenseHost: a crossbar
	// accepts any host id, and one fault on a huge id must not size a
	// dense table by it.
	hostBig map[int]float64
}

// maxDenseHost bounds the host ids State keeps in its dense table.
const maxDenseHost = 1 << 16

// LinkFactor returns the capacity factor of switch sw's uplink.
func (s *State) LinkFactor(sw int) float64 {
	if s == nil || sw < 0 || sw >= len(s.link) {
		return 1
	}
	return s.link[sw]
}

// HostFactor returns the capacity factor of host h's NIC.
func (s *State) HostFactor(h int) float64 {
	if s == nil || h < 0 {
		return 1
	}
	if h < len(s.host) {
		return s.host[h]
	}
	if f, ok := s.hostBig[h]; ok {
		return f
	}
	return 1
}

// set writes the factor of target t.
func (s *State) set(t Target, f float64) {
	switch {
	case t.Kind == TargetLink:
		s.link[t.ID] = f
	case t.ID < len(s.host):
		s.host[t.ID] = f
	default:
		s.hostBig[t.ID] = f
	}
}

// step is one change point of the compiled timeline: the targets whose
// factor changed and their new factors.
type step struct {
	at      float64
	changed []Target
	factors []float64
}

// Timeline is a Schedule compiled against nothing but itself: a sorted
// sequence of change points, one per distinct change time after t=0,
// plus the initial factors (faults at or before t=0 folded in).
//
// Compilation resolves overlaps by multiplying the factors of every
// event active at each instant, so a double failure of the same link
// stays down until the *last* repair. Each step carries the exact set
// of targets whose factor changed, which the incremental allocator uses
// to dirty only the affected constraint components. Only targets the
// schedule names are stored per step, so a timeline costs memory in
// proportion to its events plus one dense State.
//
// Rewind and Step mutate the shared State in place and allocate
// nothing, so a rewind/step/allocate cycle runs at 0 allocs/op.
type Timeline struct {
	state  State
	names  []Target  // every target the schedule names, links first, by id
	init   []float64 // per name: its factor at t=0
	steps  []step
	cursor int
}

// Compile builds the timeline for a schedule. The schedule must already
// be validated; Compile sizes the State's dense factor tables off the
// largest target index it sees, host ids past maxDenseHost going to a
// small map instead. Compiling the empty schedule yields a
// timeline with no steps and all-healthy state.
func Compile(sched Schedule) *Timeline {
	tl := &Timeline{}
	index := make(map[Target]int)
	for _, e := range sched.Events {
		t := e.target()
		if _, ok := index[t]; !ok {
			index[t] = len(tl.names)
			tl.names = append(tl.names, t)
		}
	}
	sort.Slice(tl.names, func(i, j int) bool {
		a, b := tl.names[i], tl.names[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
	nLink, nHost := 0, 0
	var hostBig map[int]float64
	for i, t := range tl.names {
		index[t] = i
		switch {
		case t.Kind == TargetLink:
			nLink = max(nLink, t.ID+1)
		case t.ID < maxDenseHost:
			nHost = max(nHost, t.ID+1)
		default:
			if hostBig == nil {
				hostBig = make(map[int]float64)
			}
			hostBig[t.ID] = 1
		}
	}
	slot := make([]int, len(sched.Events))
	for k, e := range sched.Events {
		slot[k] = index[e.target()]
	}
	// at writes into f the factor of every named target at time t.
	at := func(t float64, f []float64) {
		for i := range f {
			f[i] = 1
		}
		for k, e := range sched.Events {
			if e.activeAt(t) {
				f[slot[k]] *= e.Factor // LinkDown validates to 0
			}
		}
	}
	times := make([]float64, 0, 2*len(sched.Events))
	seen := make(map[float64]bool)
	add := func(t float64) {
		if t > 0 && !seen[t] {
			seen[t] = true
			times = append(times, t)
		}
	}
	for _, e := range sched.Events {
		add(e.At)
		add(e.Until)
	}
	sort.Float64s(times)

	tl.init = make([]float64, len(tl.names))
	at(0, tl.init)
	prev := append([]float64(nil), tl.init...)
	cur := make([]float64, len(tl.names))
	for _, t := range times {
		at(t, cur)
		s := step{at: t}
		for i, f := range cur {
			if f != prev[i] {
				s.changed = append(s.changed, tl.names[i])
				s.factors = append(s.factors, f)
			}
		}
		if len(s.changed) == 0 {
			continue // e.g. a repair masked by an overlapping failure
		}
		tl.steps = append(tl.steps, s)
		copy(prev, cur)
	}
	tl.state = State{link: make([]float64, nLink), host: make([]float64, nHost), hostBig: hostBig}
	for _, fs := range [][]float64{tl.state.link, tl.state.host} {
		for i := range fs {
			fs[i] = 1
		}
	}
	tl.Rewind()
	return tl
}

// State returns the mutable overlay driven by this timeline. Store the
// pointer once (e.g. in CoupledConfig.Faults); every Rewind and Step
// updates it in place.
func (tl *Timeline) State() *State { return &tl.state }

// Steps returns the number of change points after t=0.
func (tl *Timeline) Steps() int { return len(tl.steps) }

// Rewind resets the state to t=0 (faults at or before zero applied) and
// the cursor to the first change point.
func (tl *Timeline) Rewind() {
	for i, t := range tl.names {
		tl.state.set(t, tl.init[i])
	}
	tl.cursor = 0
}

// Next returns the time of the next change point, if any.
func (tl *Timeline) Next() (float64, bool) {
	if tl.cursor >= len(tl.steps) {
		return 0, false
	}
	return tl.steps[tl.cursor].at, true
}

// Step applies the next change point to the state and returns the
// targets whose factor changed. The returned slice is owned by the
// timeline; read it before the next Compile, don't retain it.
func (tl *Timeline) Step() []Target {
	s := &tl.steps[tl.cursor]
	for i, t := range s.changed {
		tl.state.set(t, s.factors[i])
	}
	tl.cursor++
	return s.changed
}
