// Package fault defines deterministic, seedable fault schedules for the
// simulated fabric: link failures and repairs, fractional link capacity
// degradation, and per-host NIC slowdowns.
//
// A Schedule is pure data — a list of timed Events — and is immutable
// once built. It compiles (see Timeline) into a sequence of capacity
// snapshots that the fluid engine applies mid-replay, so the same
// Schedule drives both the optimized incremental allocator and the
// map-based reference oracle to bit-identical results.
//
// The grammar rendered by Event.String and accepted by ParseEvent is the
// schemelang `fault:` header payload:
//
//	link <switch> down at <t> [until <t>]
//	link <switch> degrade <factor> at <t> [until <t>]
//	host <id> slow <factor> at <t> [until <t>]
//
// Times are seconds on the simulation clock. A fault with no `until`
// never repairs. Faults at or before t=0 are folded into the initial
// fabric state; overlapping faults on the same target multiply.
package fault

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"bwshare/internal/topology"
)

// Kind enumerates the fault families.
type Kind uint8

// Fault kinds.
const (
	// LinkDown removes both directions of an edge switch's uplink
	// (capacity factor 0).
	LinkDown Kind = iota
	// LinkDegrade scales both directions of an edge switch's uplink by
	// Factor in [0, 1]. Factor 0 behaves exactly as LinkDown.
	LinkDegrade
	// HostSlow scales one host's NIC (send and receive) by Factor in
	// [0, 1] — a throttled or renegotiated link, a sick driver.
	HostSlow
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link down"
	case LinkDegrade:
		return "link degrade"
	case HostSlow:
		return "host slow"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault. The zero value is not a valid event;
// build them literally or via ParseEvent.
type Event struct {
	// Kind selects the fault family.
	Kind Kind
	// Target is the edge switch index (link kinds) or host id (HostSlow).
	Target int
	// Factor is the capacity multiplier in [0, 1] for LinkDegrade and
	// HostSlow. LinkDown requires Factor == 0.
	Factor float64
	// At is the injection time in seconds. Values <= 0 fold into the
	// initial fabric state.
	At float64
	// Until is the repair time; 0 means the fault is never repaired.
	// When set it must be strictly after At.
	Until float64
}

// String renders the event in the schemelang `fault:` payload grammar,
// e.g. "link 2 down at 0.05 until 0.12" or "host 3 slow 0.25 at 0".
func (e Event) String() string {
	var sb strings.Builder
	switch e.Kind {
	case LinkDown:
		fmt.Fprintf(&sb, "link %d down", e.Target)
	case LinkDegrade:
		fmt.Fprintf(&sb, "link %d degrade %g", e.Target, e.Factor)
	case HostSlow:
		fmt.Fprintf(&sb, "host %d slow %g", e.Target, e.Factor)
	default:
		fmt.Fprintf(&sb, "Kind(%d) %d", int(e.Kind), e.Target)
	}
	fmt.Fprintf(&sb, " at %g", e.At)
	if e.Until != 0 {
		fmt.Fprintf(&sb, " until %g", e.Until)
	}
	return sb.String()
}

// validate checks the event in isolation (no topology context).
func (e Event) validate() error {
	switch e.Kind {
	case LinkDown:
		if e.Factor != 0 {
			return fmt.Errorf("link down carries no factor, got %g", e.Factor)
		}
	case LinkDegrade, HostSlow:
		if !(e.Factor >= 0 && e.Factor <= 1) { // also rejects NaN
			return fmt.Errorf("factor must be in [0, 1], got %g", e.Factor)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", int(e.Kind))
	}
	if e.Target < 0 {
		return fmt.Errorf("negative target %d", e.Target)
	}
	if math.IsNaN(e.At) || math.IsInf(e.At, 0) {
		return fmt.Errorf("fault time must be finite, got %g", e.At)
	}
	if e.Until != 0 {
		if math.IsNaN(e.Until) || math.IsInf(e.Until, 0) {
			return fmt.Errorf("repair time must be finite, got %g", e.Until)
		}
		if e.Until <= e.At {
			return fmt.Errorf("repair at %g precedes fault at %g", e.Until, e.At)
		}
	}
	return nil
}

// activeAt reports whether the fault degrades the fabric at time t.
// Injection is inclusive, repair exclusive: the snapshot taken exactly
// at Until is already healthy.
func (e Event) activeAt(t float64) bool {
	return e.At <= t && (e.Until == 0 || t < e.Until)
}

// target returns the fabric resource the fault degrades.
func (e Event) target() Target {
	if e.Kind == HostSlow {
		return Target{TargetHost, e.Target}
	}
	return Target{TargetLink, e.Target}
}

// ParseEvent parses the String form. It accepts exactly the grammar in
// the package comment; errors name the offending token.
func ParseEvent(src string) (Event, error) {
	fields := strings.Fields(src)
	pos := 0
	next := func() string {
		if pos >= len(fields) {
			return ""
		}
		f := fields[pos]
		pos++
		return f
	}
	num := func(what string) (float64, error) {
		tok := next()
		if tok == "" {
			return 0, fmt.Errorf("fault: missing %s", what)
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return 0, fmt.Errorf("fault: invalid %s %q", what, tok)
		}
		return v, nil
	}
	var e Event
	switch subject := next(); subject {
	case "link", "host":
		tok := next()
		id, err := strconv.Atoi(tok)
		if err != nil || id < 0 {
			return Event{}, fmt.Errorf("fault: invalid %s index %q", subject, tok)
		}
		e.Target = id
		verb := next()
		switch {
		case subject == "link" && verb == "down":
			e.Kind = LinkDown
		case subject == "link" && verb == "degrade":
			e.Kind = LinkDegrade
		case subject == "host" && verb == "slow":
			e.Kind = HostSlow
		default:
			return Event{}, fmt.Errorf("fault: unknown %s fault %q", subject, verb)
		}
		if e.Kind != LinkDown {
			if e.Factor, err = num("factor"); err != nil {
				return Event{}, err
			}
		}
	case "":
		return Event{}, fmt.Errorf("fault: empty event")
	default:
		return Event{}, fmt.Errorf("fault: unknown subject %q (want link or host)", subject)
	}
	if kw := next(); kw != "at" {
		return Event{}, fmt.Errorf("fault: expected 'at <time>', got %q", kw)
	}
	var err error
	if e.At, err = num("time"); err != nil {
		return Event{}, err
	}
	if pos < len(fields) {
		if kw := next(); kw != "until" {
			return Event{}, fmt.Errorf("fault: expected 'until <time>', got %q", kw)
		}
		if e.Until, err = num("repair time"); err != nil {
			return Event{}, err
		}
		if e.Until == 0 {
			return Event{}, fmt.Errorf("fault: repair time 0 is reserved for 'never'; omit the until clause instead")
		}
	}
	if err := e.validate(); err != nil {
		return Event{}, fmt.Errorf("fault: %s", strings.TrimPrefix(err.Error(), "fault: "))
	}
	return e, nil
}

// Schedule is an immutable list of faults. The zero value is the
// healthy fabric.
type Schedule struct {
	// Events in declaration order. Order is irrelevant to the compiled
	// semantics (overlaps multiply) but preserved for rendering.
	Events []Event
}

// Empty reports whether the schedule holds no faults.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// CheckEvent validates one event in isolation and against the fabric:
// link faults need a multi-switch topology and an existing switch; host
// faults need a host inside the fabric (any non-negative id on a
// crossbar, whose host set is unbounded). The error carries no event
// index or prefix, so callers can attribute it to their own source
// location (a schemelang line, a JSON array index).
func CheckEvent(e Event, topo topology.Spec) error {
	if err := e.validate(); err != nil {
		return err
	}
	switch e.Kind {
	case LinkDown, LinkDegrade:
		if topo.Trivial() {
			return fmt.Errorf("%s fabric has no uplinks to fail", topo.Kind)
		}
		if e.Target >= topo.Switches {
			return fmt.Errorf("switch %d does not exist in %s", e.Target, topo)
		}
	case HostSlow:
		if h := topo.Hosts(); h > 0 && e.Target >= h {
			return fmt.Errorf("host %d does not exist in %s (%d hosts)", e.Target, topo, h)
		}
	}
	return nil
}

// Validate checks every event against the fabric with CheckEvent. The
// returned error identifies the event by index.
func (s Schedule) Validate(topo topology.Spec) error {
	for i, e := range s.Events {
		if err := CheckEvent(e, topo); err != nil {
			return fmt.Errorf("fault: event %d (%s): %s", i, e, strings.TrimPrefix(err.Error(), "fault: "))
		}
	}
	return nil
}

// PermanentZero returns the index of the first event that zeroes a
// capacity forever — a link down or a zero-factor degradation/slowdown
// with no repair time — or -1 when there is none. Engines simulate such
// faults fine (the affected flows stall at rate zero), but prediction
// layers reject them up front: a flow behind a permanently dead link
// has no finite completion time to predict.
func (s Schedule) PermanentZero() int {
	for i, e := range s.Events {
		if e.Factor == 0 && e.Until == 0 {
			return i
		}
	}
	return -1
}

// Canonical renders the schedule one event per line in declaration
// order; equal canonical forms imply equal schedules.
func (s Schedule) Canonical() string {
	var sb strings.Builder
	for _, e := range s.Events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Equal reports elementwise equality. Schedules that differ only in
// event order compare unequal even though they compile identically.
func (s Schedule) Equal(o Schedule) bool {
	if len(s.Events) != len(o.Events) {
		return false
	}
	for i, e := range s.Events {
		if e != o.Events[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy safe to retain across caller mutations.
func (s Schedule) Clone() Schedule {
	if len(s.Events) == 0 {
		return Schedule{}
	}
	return Schedule{Events: append([]Event(nil), s.Events...)}
}

// FNV-1a parameters (matching schemelang.Hash).
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	return h
}

// Hash returns a zero-allocation FNV-1a digest of the schedule. The
// empty schedule hashes to 0 so the healthy fabric keeps its historical
// cache keys.
func (s Schedule) Hash() uint64 {
	if len(s.Events) == 0 {
		return 0
	}
	h := uint64(fnv64Offset)
	for _, e := range s.Events {
		h = hashU64(h, uint64(e.Kind))
		h = hashU64(h, uint64(e.Target))
		h = hashU64(h, math.Float64bits(e.Factor))
		h = hashU64(h, math.Float64bits(e.At))
		h = hashU64(h, math.Float64bits(e.Until))
	}
	return h
}

// RandomLinks draws n link faults over the first `switches` edge
// switches, injected uniformly in [0, horizon) with repair windows of
// up to half the horizon (one in four faults is permanent). Half the
// faults are hard downs, half fractional degradations. Deterministic
// given the generator state, which the package's seeded tests rely on.
// (EXP-FAULT draws its trial schedules itself, in package experiments.)
func RandomLinks(rng *rand.Rand, switches, n int, horizon float64) Schedule {
	if switches < 1 || n < 1 || !(horizon > 0) {
		return Schedule{}
	}
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		e := Event{Target: rng.IntN(switches), At: rng.Float64() * horizon}
		if rng.IntN(2) == 0 {
			e.Kind = LinkDown
		} else {
			e.Kind = LinkDegrade
			e.Factor = 0.1 + float64(0.8*rng.Float64())
		}
		if rng.IntN(4) != 0 {
			e.Until = e.At + float64((0.05+float64(0.45*rng.Float64()))*horizon)
		}
		events = append(events, e)
	}
	return Schedule{Events: events}
}
