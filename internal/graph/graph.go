// Package graph defines communication scheme graphs: a set of cluster
// nodes and directed point-to-point communications between them.
//
// A communication scheme is the central object of the paper: penalties,
// conflicts and models are all functions of the scheme graph. Nodes are
// identified by small non-negative integers (cluster node indices, not MPI
// ranks); communications carry a label, endpoints and a volume in bytes.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a cluster node in a scheme.
type NodeID int

// CommID identifies a communication within one Graph (dense, 0-based).
type CommID int

// Comm is one directed point-to-point communication.
type Comm struct {
	ID     CommID
	Label  string  // short name such as "a", "b" (unique within a graph)
	Src    NodeID  // source node
	Dst    NodeID  // destination node
	Volume float64 // bytes to transfer
}

// Graph is a communication scheme. Node-id graphs come from Build and
// Subgraph, which hand out fresh graphs that are only ever read, so
// they may be cached and shared across goroutines. RebuildNumbered is
// the only in-place rebuild: it is for allocator-owned scratch graphs a
// single owner re-scores (the predictor's active conflict graph), and a
// graph handed to a cache or another goroutine is never rebuilt.
//
// Endpoints are numbered densely: each communication records the node
// indices of its two ends, and degrees are per-index slices, so
// per-comm degree lookups (Ends, OutDegreeAt, InDegreeAt) are array
// reads. In a graph from Build or Subgraph node index k is the k-th
// smallest endpoint id. A graph from RebuildNumbered keeps its
// caller's numbering instead, in which an index names one constraint
// slot — a host's send NIC or its receive NIC — rather than a node;
// there only the role-specific degrees mean anything (the out-degree
// at a source index, the in-degree at a destination index), and the
// node-id accessors (Nodes, OutDegree, InDegree, ConflictAt) panic.
type Graph struct {
	comms    []Comm
	nodes    []NodeID // sorted distinct endpoints; index k names nodes[k]
	src      []int    // node index of comms[i].Src
	dst      []int    // node index of comms[i].Dst
	outDeg   []int    // per node index
	inDeg    []int    // per node index
	maxNode  NodeID   // largest endpoint id, -1 when empty
	numbered bool     // built by RebuildNumbered: indices name slots
}

// Builder incrementally constructs a Graph.
type Builder struct {
	comms []Comm
	seen  map[string]bool
	err   error
}

// NewBuilder returns an empty scheme builder.
func NewBuilder() *Builder {
	return &Builder{seen: make(map[string]bool)}
}

// Add appends a communication with an explicit label. Self-loops and
// duplicate labels are recorded as errors surfaced by Build.
func (b *Builder) Add(label string, src, dst NodeID, volume float64) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case label == "":
		b.err = fmt.Errorf("graph: empty label")
	case b.seen[label]:
		b.err = fmt.Errorf("graph: duplicate label %q", label)
	case src == dst:
		b.err = fmt.Errorf("graph: communication %q is a self-loop on node %d", label, src)
	case src < 0 || dst < 0:
		b.err = fmt.Errorf("graph: communication %q has negative node id", label)
	case volume <= 0:
		b.err = fmt.Errorf("graph: communication %q has non-positive volume %g", label, volume)
	}
	if b.err != nil {
		return b
	}
	b.seen[label] = true
	b.comms = append(b.comms, Comm{
		ID:     CommID(len(b.comms)),
		Label:  label,
		Src:    src,
		Dst:    dst,
		Volume: volume,
	})
	return b
}

// Build finalizes the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	return build(b.comms), nil
}

// build returns a fresh graph over a copy of comms, renumbered densely
// (ID i at position i). Nothing is checked: comms must have
// non-negative, distinct endpoints and positive volumes.
func build(comms []Comm) *Graph {
	n := len(comms)
	g := &Graph{}
	minNode := g.copyComms(comms)
	g.src = make([]int, n)
	g.dst = make([]int, n)
	// The counting pass scans the whole id range, so it is taken only
	// while that range is a constant factor of the comm count and the
	// build stays linear.
	if minNode >= 0 && int(g.maxNode) <= 4*n+64 {
		g.numberDense()
	} else {
		g.numberSorted()
	}
	g.countDegrees(len(g.nodes))
	return g
}

// RebuildNumbered makes g the graph of comms in place, reusing g's
// storage, in a numbering the caller already holds: communication i
// runs from node index src[i] to node index dst[i], and the indices are
// in [0, n). comms are copied and renumbered densely (ID i at position
// i); labels may be empty or repeated. Nothing is checked, scanned or
// sorted; the cost is linear in len(comms), and once warm it allocates
// nothing.
// The indices must give the communications leaving one node one shared
// source index, those entering one node one shared destination index,
// and distinct nodes distinct indices within a role; a node's two roles
// may share an index or not. The result is a numbered graph (see
// Graph): the degree models score it exactly as the Build graph of the
// same comms, but its node-id accessors panic.
func RebuildNumbered(g *Graph, comms []Comm, src, dst []int, n int) {
	g.copyComms(comms)
	g.src = append(g.src[:0], src...)
	g.dst = append(g.dst[:0], dst...)
	g.nodes = g.nodes[:0]
	g.numbered = true
	g.countDegrees(n)
}

// copyComms makes g's communications a copy of comms, numbered densely
// (ID i at position i), and sets maxNode; it returns the smallest
// endpoint id, or 0 if that is larger.
func (g *Graph) copyComms(comms []Comm) (minNode NodeID) {
	g.comms = append(g.comms[:0], comms...)
	g.maxNode = -1
	for i := range g.comms {
		c := &g.comms[i]
		c.ID = CommID(i)
		g.maxNode = max(g.maxNode, c.Src, c.Dst)
		minNode = min(minNode, c.Src, c.Dst)
	}
	return minNode
}

// countDegrees sizes the degree slices to k node indices and counts
// every communication at its ends.
func (g *Graph) countDegrees(k int) {
	g.outDeg = resize(g.outDeg, k)
	g.inDeg = resize(g.inDeg, k)
	clear(g.outDeg)
	clear(g.inDeg)
	for i := range g.comms {
		g.outDeg[g.src[i]]++
		g.inDeg[g.dst[i]]++
	}
}

// byID panics on a numbered graph, whose node indices are not nodes;
// the node-id accessors call it first.
func (g *Graph) byID(accessor string) {
	if g.numbered {
		panic("graph: " + accessor + " on a numbered graph (RebuildNumbered), whose node indices name constraint slots, not nodes")
	}
}

// numberDense numbers the endpoints by a counting pass over the id
// range, for ids small relative to the comm count.
func (g *Graph) numberDense() {
	slot := make([]int, int(g.maxNode)+1) // id -> node index + 1
	for _, c := range g.comms {
		slot[c.Src], slot[c.Dst] = 1, 1
	}
	for id, seen := range slot {
		if seen != 0 {
			g.nodes = append(g.nodes, NodeID(id))
			slot[id] = len(g.nodes)
		}
	}
	for i, c := range g.comms {
		g.src[i], g.dst[i] = slot[c.Src]-1, slot[c.Dst]-1
	}
}

// numberSorted numbers the endpoints by sorting them and binary
// searching each, for sparse ids.
func (g *Graph) numberSorted() {
	for _, c := range g.comms {
		g.nodes = append(g.nodes, c.Src, c.Dst)
	}
	slices.Sort(g.nodes)
	g.nodes = slices.Compact(g.nodes)
	for i, c := range g.comms {
		g.src[i], _ = slices.BinarySearch(g.nodes, c.Src)
		g.dst[i], _ = slices.BinarySearch(g.nodes, c.Dst)
	}
}

// resize returns buf with length n, reallocating only when capacity
// lacks; the contents are unspecified.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the number of communications.
func (g *Graph) Len() int { return len(g.comms) }

// Comm returns the communication with the given id.
func (g *Graph) Comm(id CommID) Comm { return g.comms[int(id)] }

// Comms returns a copy of all communications in id order.
func (g *Graph) Comms() []Comm { return append([]Comm(nil), g.comms...) }

// ByLabel looks a communication up by label with a linear scan.
func (g *Graph) ByLabel(label string) (Comm, bool) {
	for _, c := range g.comms {
		if c.Label == label {
			return c, true
		}
	}
	return Comm{}, false
}

// OutDegree returns Δo(n): the number of communications leaving node n.
func (g *Graph) OutDegree(n NodeID) int {
	g.byID("OutDegree")
	if k, ok := slices.BinarySearch(g.nodes, n); ok {
		return g.outDeg[k]
	}
	return 0
}

// InDegree returns Δi(n): the number of communications entering node n.
func (g *Graph) InDegree(n NodeID) int {
	g.byID("InDegree")
	if k, ok := slices.BinarySearch(g.nodes, n); ok {
		return g.inDeg[k]
	}
	return 0
}

// Ends returns the node indices of communication id's source and
// destination, in [0, NumNodes): positions in Nodes, or the caller's
// numbering in a numbered graph.
func (g *Graph) Ends(id CommID) (src, dst int) { return g.src[id], g.dst[id] }

// OutDegreeAt is OutDegree of the node with index k (see Ends).
func (g *Graph) OutDegreeAt(k int) int { return g.outDeg[k] }

// InDegreeAt is InDegree of the node with index k (see Ends).
func (g *Graph) InDegreeAt(k int) int { return g.inDeg[k] }

// Nodes returns the sorted set of nodes that appear as an endpoint;
// callers get a copy.
func (g *Graph) Nodes() []NodeID {
	g.byID("Nodes")
	return append([]NodeID(nil), g.nodes...)
}

// NumNodes returns the number of node indices without allocating: the
// number of distinct endpoint nodes, or in a numbered graph the n it
// was rebuilt with.
func (g *Graph) NumNodes() int { return len(g.outDeg) }

// MaxNode returns the largest node id appearing as an endpoint, or -1
// for an empty scheme. Dense per-node state can be sized from it.
func (g *Graph) MaxNode() NodeID { return g.maxNode }

// Sources returns the ids of communications whose source is n, in id order.
func (g *Graph) Sources(n NodeID) []CommID {
	var out []CommID
	for _, c := range g.comms {
		if c.Src == n {
			out = append(out, c.ID)
		}
	}
	return out
}

// Destinations returns the ids of communications whose destination is n.
func (g *Graph) Destinations(n NodeID) []CommID {
	var out []CommID
	for _, c := range g.comms {
		if c.Dst == n {
			out = append(out, c.ID)
		}
	}
	return out
}

// Subgraph returns a new Graph containing only the communications whose id
// is in keep (order preserved, ids renumbered densely). The returned
// mapping gives, for each new id, the original id.
func (g *Graph) Subgraph(keep []CommID) (*Graph, []CommID) {
	comms := make([]Comm, len(keep))
	for i, id := range keep {
		comms[i] = g.comms[int(id)]
	}
	return build(comms), append([]CommID(nil), keep...)
}

// Equal reports whether two graphs describe the identical communication
// sequence: same length and, position by position, the same label,
// endpoints and volume. It allocates nothing, so it is usable to confirm
// hash-keyed cache hits on the serving hot path.
func Equal(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || len(a.comms) != len(b.comms) {
		return false
	}
	for i := range a.comms {
		ca, cb := &a.comms[i], &b.comms[i]
		if ca.Label != cb.Label || ca.Src != cb.Src || ca.Dst != cb.Dst || ca.Volume != cb.Volume {
			return false
		}
	}
	return true
}

// ConflictKind classifies the elementary conflict of one communication on
// one of its endpoint nodes (Section IV-A of the paper).
type ConflictKind int

const (
	// NoConflict: the communication is alone on the node.
	NoConflict ConflictKind = iota
	// OutgoingConflict C<-X->: outgoes together with other outgoing comms.
	OutgoingConflict
	// IncomingConflict C->X<-: incomes together with other incoming comms.
	IncomingConflict
	// MixedConflict C->X-> or C<-X<-: incomes (resp. outgoes) with other
	// outgoing (resp. incoming) communications.
	MixedConflict
)

func (k ConflictKind) String() string {
	switch k {
	case NoConflict:
		return "none"
	case OutgoingConflict:
		return "outgoing"
	case IncomingConflict:
		return "incoming"
	case MixedConflict:
		return "mixed"
	default:
		return fmt.Sprintf("ConflictKind(%d)", int(k))
	}
}

// ConflictAt classifies the conflict that communication id experiences at
// node n, which must be one of its endpoints.
func (g *Graph) ConflictAt(id CommID, n NodeID) ConflictKind {
	g.byID("ConflictAt")
	c := g.comms[int(id)]
	switch n {
	case c.Src:
		out, in := g.outDeg[g.src[id]], g.inDeg[g.src[id]]
		others := out - 1
		switch {
		case others == 0 && in == 0:
			return NoConflict
		case others > 0 && in == 0:
			return OutgoingConflict
		case others == 0 && in > 0:
			return MixedConflict
		default:
			return MixedConflict
		}
	case c.Dst:
		out, in := g.outDeg[g.dst[id]], g.inDeg[g.dst[id]]
		others := in - 1
		switch {
		case others == 0 && out == 0:
			return NoConflict
		case others > 0 && out == 0:
			return IncomingConflict
		case others == 0 && out > 0:
			return MixedConflict
		default:
			return MixedConflict
		}
	}
	return NoConflict
}

// ConflictRule selects which pairs of communications conflict, i.e. cannot
// be in the "send" state simultaneously in the Myrinet state-set model.
type ConflictRule int

const (
	// SameRole: conflict iff same source node or same destination node
	// (the literal rule of Section V-B; reproduces Figure 6 exactly).
	SameRole ConflictRule = iota
	// AnyEndpoint: conflict iff the two communications share any node in
	// any role. Kept for the EXP-A2 ablation.
	AnyEndpoint
)

func (r ConflictRule) String() string {
	switch r {
	case SameRole:
		return "same-role"
	case AnyEndpoint:
		return "any-endpoint"
	default:
		return fmt.Sprintf("ConflictRule(%d)", int(r))
	}
}

// ConflictAdj returns the conflict adjacency matrix among communications
// under the given rule. adj[i][j] is true iff comms i and j conflict.
func (g *Graph) ConflictAdj(rule ConflictRule) [][]bool {
	n := len(g.comms)
	adj := make([][]bool, n)
	row := make([]bool, n*n)
	for i := range adj {
		adj[i], row = row[:n:n], row[n:]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := g.comms[i], g.comms[j]
			var conflict bool
			switch rule {
			case SameRole:
				conflict = ci.Src == cj.Src || ci.Dst == cj.Dst
			case AnyEndpoint:
				conflict = ci.Src == cj.Src || ci.Dst == cj.Dst ||
					ci.Src == cj.Dst || ci.Dst == cj.Src
			}
			adj[i][j] = conflict
			adj[j][i] = conflict
		}
	}
	return adj
}

// DOT renders the scheme in Graphviz dot syntax (edge labels are the
// communication labels). Useful for debugging and documentation.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", name)
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "  n%d [label=\"%d\"];\n", n, n)
	}
	for _, c := range g.comms {
		fmt.Fprintf(&sb, "  n%d -> n%d [label=%q];\n", c.Src, c.Dst, c.Label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String summarizes the scheme on one line, e.g. "a:0>1 b:0>2".
func (g *Graph) String() string {
	parts := make([]string, len(g.comms))
	for i, c := range g.comms {
		parts[i] = fmt.Sprintf("%s:%d>%d", c.Label, c.Src, c.Dst)
	}
	return strings.Join(parts, " ")
}
