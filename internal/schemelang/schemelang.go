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
	"unicode"

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

// parseFull is ParseList plus the graph build, the one parser behind
// Parse, ParseWithTopology and ParseFull. lines[i] is the 1-based source
// line of sched.Events[i].
func parseFull(src string) (*graph.Graph, topology.Spec, fault.Schedule, []int, error) {
	comms, spec, sched, lines, err := parseLines(src, nil)
	if err != nil {
		return nil, spec, sched, lines, err
	}
	b := graph.NewBuilder()
	for _, c := range comms {
		b.Add(c.Label, c.Src, c.Dst, c.Volume)
	}
	g, err := b.Build()
	if err != nil {
		return nil, spec, sched, lines, fmt.Errorf("schemelang: %w", err)
	}
	return g, spec, sched, lines, checkFabric(g.MaxNode(), spec, sched, lines)
}

// ParseList is ParseFull without the graph: it appends the scheme's
// communications to dst, in source order and with their effective
// volumes (IDs are left zero), and returns the declared fabric and
// fault schedule, checked as ParseFull checks them. It does not run
// graph.Builder, so the errors Build reports (an empty or duplicate
// label, a self-loop, a negative node) are not detected, and an error
// ParseFull reports after such one may be returned in its place; a
// caller that needs ParseFull's exact error calls ParseFull. Labels are
// substrings of src, and a valid scheme of well-formed lines is parsed
// without allocating once dst has room.
func ParseList(src string, dst []graph.Comm) ([]graph.Comm, topology.Spec, fault.Schedule, error) {
	comms, spec, sched, lines, err := parseLines(src, dst)
	if err != nil {
		return comms, spec, sched, err
	}
	maxNode := graph.NodeID(-1)
	for _, c := range comms {
		maxNode = max(maxNode, c.Src, c.Dst)
	}
	return comms, spec, sched, checkFabric(maxNode, spec, sched, lines)
}

// checkFabric checks a parsed scheme against its declared fabric: its
// nodes must fit, and its fault events must name parts of it. Fault
// events are checked only here because the topology: header may legally
// follow the fault: headers.
func checkFabric(maxNode graph.NodeID, spec topology.Spec, sched fault.Schedule, lines []int) error {
	if err := spec.CheckFit(maxNode); err != nil {
		return fmt.Errorf("schemelang: %w", err)
	}
	for i, e := range sched.Events {
		if err := fault.CheckEvent(e, spec); err != nil {
			return &ParseError{lines[i], "fault: " + err.Error()}
		}
	}
	return nil
}

// parseLines reads the statements of src, appending its communications
// to comms. It checks everything but the graph build and the fabric
// fit.
func parseLines(src string, comms []graph.Comm) ([]graph.Comm, topology.Spec, fault.Schedule, []int, error) {
	var spec topology.Spec
	var sched fault.Schedule
	var faultLines []int // 1-based source line of each event
	volume := float64(DefaultVolume)
	seen := false
	topoSeen, placeSeen, inlinePlace := false, false, false
	var placeAt int // line of the place: header, validated after topology:
	for ln, tail, more := 0, src, true; more; ln++ {
		var line string
		line, tail, more = strings.Cut(tail, "\n")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if first, args := cutField(line); first == "volume" {
			arg, extra := cutField(args)
			if arg == "" || strings.TrimSpace(extra) != "" {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, "volume directive needs exactly one argument"}
			}
			v, err := ParseVolume(arg)
			if err != nil {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
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
				return comms, spec, sched, faultLines, &ParseError{ln + 1, "duplicate topology header"}
			}
			topoSeen = true
			for _, f := range strings.Fields(arg) {
				if f == "place" {
					inlinePlace = true
				}
			}
			if placeSeen && inlinePlace {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, "placement declared both as a place: header and inside the topology header"}
			}
			place := spec.Place // a preceding place: header
			s, err := topology.ParseSpec(strings.TrimSpace(arg))
			if err != nil {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			spec = s
			if placeSeen && spec.Kind != topology.Crossbar {
				spec.Place = place
			}
			continue
		}
		if arg, ok := strings.CutPrefix(line, "place:"); ok && !strings.Contains(arg, "->") {
			if placeSeen {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, "duplicate place header"}
			}
			if inlinePlace {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, "placement declared both as a place: header and inside the topology header"}
			}
			placeSeen = true
			placeAt = ln + 1
			p, err := topology.ParsePlacement(strings.TrimSpace(arg))
			if err != nil {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			spec.Place = p
			continue
		}
		if arg, ok := strings.CutPrefix(line, "fault:"); ok && !strings.Contains(arg, "->") {
			e, err := fault.ParseEvent(strings.TrimSpace(arg))
			if err != nil {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
			sched.Events = append(sched.Events, e)
			faultLines = append(faultLines, ln+1)
			continue
		}
		label, rest, ok := strings.Cut(line, ":")
		if !ok {
			return comms, spec, sched, faultLines, &ParseError{ln + 1, fmt.Sprintf("expected 'label: src -> dst', 'volume', 'topology:', 'place:' or 'fault:', got %q", line)}
		}
		label = strings.TrimSpace(label)
		if label == "" || strings.ContainsAny(label, " \t") {
			return comms, spec, sched, faultLines, &ParseError{ln + 1, fmt.Sprintf("invalid label %q", label)}
		}
		srcStr, dstStr, ok := strings.Cut(rest, "->")
		if !ok {
			return comms, spec, sched, faultLines, &ParseError{ln + 1, "missing '->'"}
		}
		srcNode, err := parseNode(srcStr)
		if err != nil {
			return comms, spec, sched, faultLines, &ParseError{ln + 1, "source: " + err.Error()}
		}
		dstField, volField := cutField(dstStr)
		volField, extra := cutField(volField)
		if dstField == "" || strings.TrimSpace(extra) != "" {
			return comms, spec, sched, faultLines, &ParseError{ln + 1, "expected 'dst [volume]' after '->'"}
		}
		dstNode, err := parseNode(dstField)
		if err != nil {
			return comms, spec, sched, faultLines, &ParseError{ln + 1, "destination: " + err.Error()}
		}
		v := volume
		if volField != "" {
			v, err = ParseVolume(volField)
			if err != nil {
				return comms, spec, sched, faultLines, &ParseError{ln + 1, err.Error()}
			}
		}
		comms = append(comms, graph.Comm{Label: label, Src: srcNode, Dst: dstNode, Volume: v})
		seen = true
	}
	if placeSeen && spec.Trivial() {
		return comms, spec, sched, faultLines, &ParseError{placeAt, "place: needs a multi-switch topology header"}
	}
	if !seen {
		return comms, spec, sched, faultLines, &ParseError{0, "no communications in scheme"}
	}
	return comms, spec, sched, faultLines, nil
}

// cutField returns the first field of s as strings.Fields splits it,
// and the text after that field.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
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
		if hasUnit(s, suf.name) {
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

// hasUnit reports whether s ends in the upper-case unit, ignoring ASCII
// case: strings.HasSuffix(strings.ToUpper(s), unit) without building
// the upper-case copy (no other rune upper-cases to a unit's letters).
func hasUnit(s, unit string) bool {
	if len(s) < len(unit) {
		return false
	}
	for i := 0; i < len(unit); i++ {
		c := s[len(s)-len(unit)+i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != unit[i] {
			return false
		}
	}
	return true
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
	h := HashSeed
	for i, n := 0, g.Len(); i < n; i++ {
		c := g.Comm(graph.CommID(i))
		h = FoldComm(h, c.Label, c.Src, c.Dst, c.Volume)
	}
	return h
}

// HashSeed is the state Hash starts from. Folding a communication
// sequence into it with FoldComm, in order, gives Hash of the graph
// that sequence builds, so a caller holding the communications in
// another form hashes them without building the graph.
const HashSeed uint64 = fnv64Offset

// FoldComm folds one communication into a Hash state.
func FoldComm[L ~string | ~[]byte](h uint64, label L, src, dst graph.NodeID, volume float64) uint64 {
	for j := 0; j < len(label); j++ {
		h = (h ^ uint64(label[j])) * fnv64Prime
	}
	h = (h ^ '\n') * fnv64Prime // label terminator: "ab"+"c" != "a"+"bc"
	h = hashU64(h, uint64(src))
	h = hashU64(h, uint64(dst))
	return hashU64(h, math.Float64bits(volume))
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
