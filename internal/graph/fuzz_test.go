package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/schemes"
)

// FuzzGraphRebuild input: a sequence of rounds, each one comm list. A
// round is a header byte — the comm count in the low 6 bits, bit 6 set
// for sparse node ids, bit 7 set for a numbering in which a node's two
// roles share one index — then one source and one destination byte per
// comm.
const (
	fuzzCountMask = 0x3f
	fuzzSparse    = 0x40
	fuzzShared    = 0x80
	fuzzSpread    = 4099 // sparse ids are byte*fuzzSpread, far past 4*N+64
)

// encodeRound appends g's comms as one fuzz round (at most 63 comms)
// with the header flags given.
func encodeRound(buf []byte, g *graph.Graph, flags byte) []byte {
	n := min(g.Len(), fuzzCountMask)
	buf = append(buf, byte(n)|flags)
	for i := 0; i < n; i++ {
		c := g.Comm(graph.CommID(i))
		buf = append(buf, byte(c.Src), byte(c.Dst))
	}
	return buf
}

// round is one decoded fuzz round.
type round struct {
	comms  []graph.Comm
	shared bool // a node's two roles share one index
}

// decodeRounds splits fuzz input into rounds, skipping self-loops (the
// Builder rejects them) and a truncated trailing comm.
func decodeRounds(data []byte) []round {
	var rounds []round
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		scale := graph.NodeID(1)
		if h&fuzzSparse != 0 {
			scale = fuzzSpread
		}
		rd := round{shared: h&fuzzShared != 0}
		for k := 0; k < int(h&fuzzCountMask) && len(data) >= 2; k++ {
			s, d := data[0], data[1]
			data = data[2:]
			if s == d {
				continue
			}
			rd.comms = append(rd.comms, graph.Comm{
				Label:  fmt.Sprintf("c%d", len(rd.comms)),
				Src:    graph.NodeID(s) * scale,
				Dst:    graph.NodeID(d) * scale,
				Volume: float64(len(rd.comms) + 1),
			})
		}
		rounds = append(rounds, rd)
	}
	return rounds
}

// slotKey names one constraint slot: a node's send side, or its
// receive side, or with shared roles the node itself.
type slotKey struct {
	node graph.NodeID
	recv bool
}

// number gives every slot of rd an index in first-appearance order, as
// RebuildNumbered takes them, and returns each index's slot.
func number(rd round) (src, dst []int, slots []slotKey) {
	index := make(map[slotKey]int)
	at := func(k slotKey) int {
		if rd.shared {
			k.recv = false
		}
		i, ok := index[k]
		if !ok {
			i = len(slots)
			index[k] = i
			slots = append(slots, k)
		}
		return i
	}
	for _, c := range rd.comms {
		src = append(src, at(slotKey{c.Src, false}))
		dst = append(dst, at(slotKey{c.Dst, true}))
	}
	return src, dst, slots
}

// FuzzGraphRebuild rebuilds one Graph by RebuildNumbered over a
// sequence of comm lists that grow and shrink, and checks after each
// rebuild that it answers every query a numbered graph offers exactly
// like the Build graph of the same comms and a map-based count, so no
// state of an earlier, larger rebuild survives. The Build graph is
// held to the map-based count on every node-id query too.
func FuzzGraphRebuild(f *testing.F) {
	var all []byte
	for i, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		f.Add(encodeRound(nil, g, 0))
		f.Add(encodeRound(nil, g, fuzzSparse|fuzzShared))
		all = encodeRound(all, g, byte(i%4)<<6)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		var g graph.Graph
		var prev []graph.NodeID
		for r, rd := range decodeRounds(data) {
			b := graph.NewBuilder()
			for _, c := range rd.comms {
				b.Add(c.Label, c.Src, c.Dst, c.Volume)
			}
			want, err := b.Build()
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			out, in := checkBuilt(t, r, want, prev)
			src, dst, slots := number(rd)
			graph.RebuildNumbered(&g, rd.comms, src, dst, len(slots))
			checkNumbered(t, r, &g, want, rd, src, dst, slots, out, in)
			prev = want.Nodes()
		}
	})
}

// checkBuilt holds a Build graph to the map-based count of its comms on
// every node-id query, including the degrees of nodes only an earlier
// round had (stale), and returns the per-node out- and in-degrees.
func checkBuilt(t *testing.T, r int, want *graph.Graph, stale []graph.NodeID) (out, in map[graph.NodeID]int) {
	t.Helper()
	out, in = map[graph.NodeID]int{}, map[graph.NodeID]int{}
	var ends []graph.NodeID
	for i := 0; i < want.Len(); i++ {
		c := want.Comm(graph.CommID(i))
		out[c.Src]++
		in[c.Dst]++
		ends = append(ends, c.Src, c.Dst)
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	maxNode := graph.NodeID(-1)
	if len(ends) > 0 {
		maxNode = ends[len(ends)-1]
	}
	nodes := want.Nodes()
	if want.MaxNode() != maxNode || want.NumNodes() != len(ends) || !slices.Equal(nodes, ends) {
		t.Fatalf("round %d: max node %d, %d node indices, nodes %v; want %d, %d, %v", r,
			want.MaxNode(), want.NumNodes(), nodes, maxNode, len(ends), ends)
	}
	for i := 0; i < want.Len(); i++ {
		id := graph.CommID(i)
		c := want.Comm(id)
		if s, d := want.Ends(id); nodes[s] != c.Src || nodes[d] != c.Dst {
			t.Fatalf("round %d: comm %d ends (%d,%d) name nodes (%d,%d), want (%d,%d)", r, i, s, d, nodes[s], nodes[d], c.Src, c.Dst)
		}
		for _, n := range []graph.NodeID{c.Src, c.Dst, c.Src + 1} {
			if k, wk := want.ConflictAt(id, n), conflictAt(c, n, out, in); k != wk {
				t.Fatalf("round %d: comm %d at node %d: %v, want %v", r, i, n, k, wk)
			}
		}
	}
	probe := append(append(slices.Clone(nodes), stale...), -1, want.MaxNode()+1)
	for _, n := range probe {
		if want.OutDegree(n) != out[n] || want.InDegree(n) != in[n] {
			t.Fatalf("round %d: node %d degrees out %d in %d, want %d, %d", r, n,
				want.OutDegree(n), want.InDegree(n), out[n], in[n])
		}
	}
	for k, n := range nodes {
		if want.OutDegreeAt(k) != out[n] || want.InDegreeAt(k) != in[n] {
			t.Fatalf("round %d: node index %d (%d) degrees %d/%d, want %d/%d", r, k, n,
				want.OutDegreeAt(k), want.InDegreeAt(k), out[n], in[n])
		}
	}
	return out, in
}

// conflictAt is ConflictAt from map-based degrees: none when c is
// alone on n, its own role's conflict when only comms of its role share
// n, mixed when n also carries the other role.
func conflictAt(c graph.Comm, n graph.NodeID, out, in map[graph.NodeID]int) graph.ConflictKind {
	var own, other int
	var kind graph.ConflictKind
	switch n {
	case c.Src:
		own, other, kind = out[n]-1, in[n], graph.OutgoingConflict
	case c.Dst:
		own, other, kind = in[n]-1, out[n], graph.IncomingConflict
	default:
		return graph.NoConflict
	}
	switch {
	case other > 0:
		return graph.MixedConflict
	case own > 0:
		return kind
	}
	return graph.NoConflict
}

// checkNumbered holds a RebuildNumbered graph got, numbered by src, dst
// and slots, to the Build graph want of the same comms and to the
// map-based degrees out and in: the comms, MaxNode, NumNodes, the ends,
// and the role-specific degrees at every index.
func checkNumbered(t *testing.T, r int, got, want *graph.Graph, rd round, src, dst []int, slots []slotKey, out, in map[graph.NodeID]int) {
	t.Helper()
	if got.Len() != want.Len() || got.MaxNode() != want.MaxNode() || got.NumNodes() != len(slots) {
		t.Fatalf("round %d: len/max/indices %d/%d/%d, want %d/%d/%d", r,
			got.Len(), got.MaxNode(), got.NumNodes(), want.Len(), want.MaxNode(), len(slots))
	}
	if rd.shared && got.NumNodes() != want.NumNodes() {
		t.Fatalf("round %d: %d shared-role indices, the built graph has %d nodes", r, got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < want.Len(); i++ {
		id := graph.CommID(i)
		c := want.Comm(id)
		if got.Comm(id) != c {
			t.Fatalf("round %d: comm %d %+v, want %+v", r, i, got.Comm(id), c)
		}
		s, d := got.Ends(id)
		if s != src[i] || d != dst[i] {
			t.Fatalf("round %d: comm %d ends (%d,%d), numbered (%d,%d)", r, i, s, d, src[i], dst[i])
		}
		ws, wd := want.Ends(id)
		if got.OutDegreeAt(s) != want.OutDegreeAt(ws) || got.InDegreeAt(d) != want.InDegreeAt(wd) {
			t.Fatalf("round %d: comm %d degrees out %d in %d, the built graph %d, %d", r, i,
				got.OutDegreeAt(s), got.InDegreeAt(d), want.OutDegreeAt(ws), want.InDegreeAt(wd))
		}
	}
	for k, sl := range slots {
		wantOut, wantIn := out[sl.node], in[sl.node]
		switch {
		case rd.shared:
		case sl.recv:
			wantOut = 0
		default:
			wantIn = 0
		}
		if got.OutDegreeAt(k) != wantOut || got.InDegreeAt(k) != wantIn {
			t.Fatalf("round %d: index %d (%+v) degrees out %d in %d, want %d, %d", r, k, sl,
				got.OutDegreeAt(k), got.InDegreeAt(k), wantOut, wantIn)
		}
	}
}
