// Package schemelang parses the textual communication-scheme description
// language used by the measurement software (the paper's Section IV-B
// mentions "a specific description language" for communication task
// schemes; this is our concrete syntax for it).
//
// Syntax (one statement per line, '#' starts a comment):
//
//	# the S4 scheme of Figure 2
//	volume 20MB          # default volume for subsequent comms
//	a: 0 -> 2            # label ':' source '->' destination
//	b: 0 -> 2 10MB       # per-comm volume override
//	c: 4 -> 2
//
// Volumes accept B, KB, MB, GB suffixes (decimal, like the paper's
// 20 MB messages) or a plain number of bytes.
//
// A scheme may additionally declare the switch fabric it runs on with
// two optional headers (see ParseWithTopology):
//
//	topology: fattree 2x4 oversub 2   # crossbar | star SxH | fattree SxH oversub R
//	place: roundrobin                 # node -> host mapping: block (default) | roundrobin
//	a: 0 -> 4
//
// Topology-agnostic callers use Parse, which accepts and ignores the
// headers, so annotated scheme files stay readable everywhere.
//
// A scheme may further schedule fabric faults, one `fault:` header per
// event, in the grammar of package fault (see ParseFull):
//
//	fault: link 1 down at 0.05 until 0.2
//	fault: host 3 slow 0.5 at 0.1
//
// Fault headers are validated against the declared topology at parse
// time. Unlike topology headers they are NOT silently ignorable — a
// caller that dropped them would predict a healthy fabric for a
// degraded scheme — so Parse and ParseWithTopology reject scheme files
// carrying them; only ParseFull accepts faults.
package schemelang

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// DefaultVolume is used when no volume directive or suffix is given:
// the paper's 20 MB benchmark message.
const DefaultVolume = 20e6

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("schemelang: line %d: %s", e.Line, e.Msg)
}

// Parse builds a communication graph from the textual description.
// Topology headers are accepted and discarded; use ParseWithTopology to
// retrieve them. Fault headers are rejected (see ParseFull).
func Parse(src string) (*graph.Graph, error) {
	g, _, err := ParseWithTopology(src)
	return g, err
}

// ParseWithTopology builds a communication graph plus the fabric the
// scheme declares via its optional 'topology:' and 'place:' headers.
// Without headers the spec is the zero (single crossbar) topology. The
// scheme's nodes are checked to fit the declared fabric. Fault headers
// are rejected: ignoring them would silently predict a healthy fabric
// for a degraded scheme (see ParseFull).
func ParseWithTopology(src string) (*graph.Graph, topology.Spec, error) {
	g, spec, sched, lines, err := parseFull(src)
	if err != nil {
		return nil, spec, err
	}
	if !sched.Empty() {
		return nil, spec, &ParseError{lines[0], "fault: headers are not supported by this caller; use ParseFull (or a fault-aware command)"}
	}
	return g, spec, nil
}

// ParseFull builds a communication graph plus the declared fabric plus
// the declared fault schedule. Each fault: header holds one event in
// package fault's grammar; events are validated against the declared
// topology, and errors name the offending line.
func ParseFull(src string) (*graph.Graph, topology.Spec, fault.Schedule, error) {
	g, spec, sched, _, err := parseFull(src)
	return g, spec, sched, err
}

// parseFull is the single parser behind Parse, ParseWithTopology and
// ParseFull. lines[i] is the 1-based source line of sched.Events[i].
func parseFull(src string) (*graph.Graph, topology.Spec, fault.Schedule, []int, error) {
	var spec topology.Spec
	var sched fault.Schedule
	var faultLines []int // 1-based source line of each event
	b := graph.NewBuilder()
	volume := float64(DefaultVolume)
	seen := false
	topoSeen, placeSeen, inlinePlace := false, false, false
	var placeAt int // line of the place: header, validated after topology:
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "volume" {
			if len(fields) != 2 {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, "volume directive needs exactly one argument"}
			}
			v, err := ParseVolume(fields[1])
			if err != nil {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			volume = v
			continue
		}
		// A line starting with "topology:" or "place:" is a fabric
		// header unless it carries "->" — 'topology' and 'place' remain
		// usable as communication labels, so pre-header scheme files
		// keep parsing.
		if arg, ok := strings.CutPrefix(line, "topology:"); ok && !strings.Contains(arg, "->") {
			if topoSeen {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, "duplicate topology header"}
			}
			topoSeen = true
			for _, f := range strings.Fields(arg) {
				if f == "place" {
					inlinePlace = true
				}
			}
			if placeSeen && inlinePlace {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, "placement declared both as a place: header and inside the topology header"}
			}
			place := spec.Place // a preceding place: header
			s, err := topology.ParseSpec(strings.TrimSpace(arg))
			if err != nil {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			spec = s
			if placeSeen && spec.Kind != topology.Crossbar {
				spec.Place = place
			}
			continue
		}
		if arg, ok := strings.CutPrefix(line, "place:"); ok && !strings.Contains(arg, "->") {
			if placeSeen {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, "duplicate place header"}
			}
			if inlinePlace {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, "placement declared both as a place: header and inside the topology header"}
			}
			placeSeen = true
			placeAt = ln + 1
			p, err := topology.ParsePlacement(strings.TrimSpace(arg))
			if err != nil {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			spec.Place = p
			continue
		}
		if arg, ok := strings.CutPrefix(line, "fault:"); ok && !strings.Contains(arg, "->") {
			e, err := fault.ParseEvent(strings.TrimSpace(arg))
			if err != nil {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			sched.Events = append(sched.Events, e)
			faultLines = append(faultLines, ln+1)
			continue
		}
		label, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, spec, sched, faultLines, &ParseError{ln + 1, fmt.Sprintf("expected 'label: src -> dst', 'volume', 'topology:', 'place:' or 'fault:', got %q", line)}
		}
		label = strings.TrimSpace(label)
		if label == "" || strings.ContainsAny(label, " \t") {
			return nil, spec, sched, faultLines, &ParseError{ln + 1, fmt.Sprintf("invalid label %q", label)}
		}
		srcStr, dstStr, ok := strings.Cut(rest, "->")
		if !ok {
			return nil, spec, sched, faultLines, &ParseError{ln + 1, "missing '->'"}
		}
		srcNode, err := parseNode(srcStr)
		if err != nil {
			return nil, spec, sched, faultLines, &ParseError{ln + 1, "source: " + err.Error()}
		}
		dstFields := strings.Fields(dstStr)
		if len(dstFields) < 1 || len(dstFields) > 2 {
			return nil, spec, sched, faultLines, &ParseError{ln + 1, "expected 'dst [volume]' after '->'"}
		}
		dstNode, err := parseNode(dstFields[0])
		if err != nil {
			return nil, spec, sched, faultLines, &ParseError{ln + 1, "destination: " + err.Error()}
		}
		v := volume
		if len(dstFields) == 2 {
			v, err = ParseVolume(dstFields[1])
			if err != nil {
				return nil, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
		}
		b.Add(label, srcNode, dstNode, v)
		seen = true
	}
	if placeSeen && spec.Trivial() {
		return nil, spec, sched, faultLines, &ParseError{placeAt, "place: needs a multi-switch topology header"}
	}
	if !seen {
		return nil, spec, sched, faultLines, &ParseError{0, "no communications in scheme"}
	}
	g, err := b.Build()
	if err != nil {
		return nil, spec, sched, faultLines, fmt.Errorf("schemelang: %w", err)
	}
	if err := spec.CheckFit(g.MaxNode()); err != nil {
		return nil, spec, sched, faultLines, fmt.Errorf("schemelang: %w", err)
	}
	// Fault events are checked against the fabric only now: the
	// topology: header may legally follow the fault: headers.
	for i, e := range sched.Events {
		if err := fault.CheckEvent(e, spec); err != nil {
			return nil, spec, sched, faultLines, &ParseError{faultLines[i], "fault: " + err.Error()}
		}
	}
	return g, spec, sched, faultLines, nil
}

func parseNode(s string) (graph.NodeID, error) {
	s = strings.TrimSpace(s)
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid node id %q (want a non-negative integer)", s)
	}
	return graph.NodeID(n), nil
}

// ParseVolume parses a byte volume with an optional decimal suffix:
// "20MB", "512KB", "1.5GB", "8B" or a raw byte count "4000000". The
// volume must be positive and finite.
func ParseVolume(s string) (float64, error) {
	mult := 1.0
	num := s
	for _, suf := range []struct {
		name string
		mult float64
	}{{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1}} {
		if strings.HasSuffix(strings.ToUpper(s), suf.name) {
			mult = suf.mult
			num = s[:len(s)-len(suf.name)]
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("invalid volume %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("volume %q must be positive", s)
	}
	// An infinite volume never drains, and NaN is not equal to itself,
	// so neither could round-trip through Canonical as one graph.
	if v *= mult; math.IsInf(v, 1) {
		return 0, fmt.Errorf("volume %q is not finite", s)
	}
	return v, nil
}

// Canonical renders g in the canonical form used as a cache identity by
// the prediction service: exactly Format's output, which is a pure
// function of the communication sequence (label, src, dst, volume in id
// order). Two graphs have the same canonical form iff graph.Equal holds,
// and Parse(Canonical(g)) reproduces g.
func Canonical(g *graph.Graph) string { return Format(g) }

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the canonical communication
// sequence of g (the same identity Canonical serializes) without
// allocating, so it can key a response cache on the serving hot path.
// Collisions must be confirmed with graph.Equal before trusting a hit.
func Hash(g *graph.Graph) uint64 {
	h := uint64(fnv64Offset)
	for i, n := 0, g.Len(); i < n; i++ {
		c := g.Comm(graph.CommID(i))
		for j := 0; j < len(c.Label); j++ {
			h = (h ^ uint64(c.Label[j])) * fnv64Prime
		}
		h = (h ^ '\n') * fnv64Prime // label terminator: "ab"+"c" != "a"+"bc"
		h = hashU64(h, uint64(c.Src))
		h = hashU64(h, uint64(c.Dst))
		h = hashU64(h, math.Float64bits(c.Volume))
	}
	return h
}

// hashU64 folds one 64-bit word into an FNV-1a state byte by byte.
func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnv64Prime
		v >>= 8
	}
	return h
}

// Format renders a graph back into the language (volumes in MB where
// exact). Parse(Format(g)) reproduces g.
func Format(g *graph.Graph) string {
	var sb strings.Builder
	for _, c := range g.Comms() {
		if mb := c.Volume / 1e6; mb == float64(int64(mb)) && mb >= 1 {
			fmt.Fprintf(&sb, "%s: %d -> %d %dMB\n", c.Label, c.Src, c.Dst, int64(mb))
		} else {
			fmt.Fprintf(&sb, "%s: %d -> %d %gB\n", c.Label, c.Src, c.Dst, c.Volume)
		}
	}
	return sb.String()
}
