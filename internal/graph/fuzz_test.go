package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/schemes"
)

// RebuildScratch fuzz input: a sequence of rounds, each one comm list.
// A round is a header byte — the comm count in the low 6 bits, bit 6
// set for sparse node ids — then one source and one destination byte
// per comm.
const (
	fuzzCountMask = 0x3f
	fuzzSparse    = 0x40
	fuzzSpread    = 4099 // sparse ids are byte*fuzzSpread, far past 4*N+64
)

// encodeRound appends g's comms as one fuzz round (at most 63 comms).
func encodeRound(buf []byte, g *graph.Graph, sparse bool) []byte {
	n := min(g.Len(), fuzzCountMask)
	h := byte(n)
	if sparse {
		h |= fuzzSparse
	}
	buf = append(buf, h)
	for i := 0; i < n; i++ {
		c := g.Comm(graph.CommID(i))
		buf = append(buf, byte(c.Src), byte(c.Dst))
	}
	return buf
}

// decodeRounds splits fuzz input into comm lists, skipping self-loops
// (the Builder rejects them) and a truncated trailing comm.
func decodeRounds(data []byte) [][]graph.Comm {
	var rounds [][]graph.Comm
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		scale := graph.NodeID(1)
		if h&fuzzSparse != 0 {
			scale = fuzzSpread
		}
		var comms []graph.Comm
		for k := 0; k < int(h&fuzzCountMask) && len(data) >= 2; k++ {
			s, d := data[0], data[1]
			data = data[2:]
			if s == d {
				continue
			}
			comms = append(comms, graph.Comm{
				Label:  fmt.Sprintf("c%d", len(comms)),
				Src:    graph.NodeID(s) * scale,
				Dst:    graph.NodeID(d) * scale,
				Volume: float64(len(comms) + 1),
			})
		}
		rounds = append(rounds, comms)
	}
	return rounds
}

// FuzzGraphRebuild rebuilds one Graph over a sequence of comm lists that
// grow and shrink, and checks after each rebuild that it answers every
// query exactly like a freshly built graph of the same comms, so no
// state of an earlier, larger rebuild survives.
func FuzzGraphRebuild(f *testing.F) {
	var all []byte
	for i, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		f.Add(encodeRound(nil, g, false))
		f.Add(encodeRound(nil, g, true))
		all = encodeRound(all, g, i%2 == 1)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		var g graph.Graph
		var prev []graph.NodeID
		for r, comms := range decodeRounds(data) {
			graph.RebuildScratch(&g, comms)
			b := graph.NewBuilder()
			for _, c := range comms {
				b.Add(c.Label, c.Src, c.Dst, c.Volume)
			}
			want, err := b.Build()
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			checkSameGraph(t, r, &g, want, prev)
			prev = want.Nodes()
		}
	})
}

// checkSameGraph compares got against want on every query, including
// the degrees of nodes only an earlier round had (stale).
func checkSameGraph(t *testing.T, r int, got, want *graph.Graph, stale []graph.NodeID) {
	t.Helper()
	if got.Len() != want.Len() || got.MaxNode() != want.MaxNode() || got.NumNodes() != want.NumNodes() {
		t.Fatalf("round %d: len/max/nodes %d/%d/%d, want %d/%d/%d", r,
			got.Len(), got.MaxNode(), got.NumNodes(), want.Len(), want.MaxNode(), want.NumNodes())
	}
	nodes := got.Nodes()
	if !slices.Equal(nodes, want.Nodes()) {
		t.Fatalf("round %d: Nodes %v, want %v", r, nodes, want.Nodes())
	}
	out, in := map[graph.NodeID]int{}, map[graph.NodeID]int{}
	for i := 0; i < want.Len(); i++ {
		id := graph.CommID(i)
		c := want.Comm(id)
		out[c.Src]++
		in[c.Dst]++
		if got.Comm(id) != c {
			t.Fatalf("round %d: comm %d %+v, want %+v", r, i, got.Comm(id), c)
		}
		s, d := got.Ends(id)
		ws, wd := want.Ends(id)
		if s != ws || d != wd || nodes[s] != c.Src || nodes[d] != c.Dst {
			t.Fatalf("round %d: comm %d ends (%d,%d), want (%d,%d)", r, i, s, d, ws, wd)
		}
		for _, n := range []graph.NodeID{c.Src, c.Dst, c.Src + 1} {
			if k, wk := got.ConflictAt(id, n), want.ConflictAt(id, n); k != wk {
				t.Fatalf("round %d: comm %d at node %d: %v, want %v", r, i, n, k, wk)
			}
		}
	}
	probe := append(append(slices.Clone(nodes), stale...), -1, got.MaxNode()+1)
	for _, n := range probe {
		if got.OutDegree(n) != out[n] || got.InDegree(n) != in[n] ||
			want.OutDegree(n) != out[n] || want.InDegree(n) != in[n] {
			t.Fatalf("round %d: node %d degrees out %d/%d in %d/%d, want %d, %d", r, n,
				got.OutDegree(n), want.OutDegree(n), got.InDegree(n), want.InDegree(n), out[n], in[n])
		}
	}
	for k, n := range nodes {
		if got.OutDegreeAt(k) != out[n] || got.InDegreeAt(k) != in[n] {
			t.Fatalf("round %d: node index %d (%d) degrees %d/%d, want %d/%d", r, k, n,
				got.OutDegreeAt(k), got.InDegreeAt(k), out[n], in[n])
		}
	}
}
