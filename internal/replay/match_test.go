package replay

import (
	"fmt"
	"math"
	"testing"

	"bwshare/internal/apps"
	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/trace"
)

// The indexed matcher, the pooled callbacks and the dense flow table must
// replay every trace exactly as scanRun (scan_oracle_test.go) does: same
// matches, same event order, bitwise-equal Results, same errors.

// matchEngines builds the engines the differential runs on: the GigE
// substrate, the GigE-model predictor and the packet-level Myrinet
// substrate.
func matchEngines(t testing.TB) []func() core.Engine {
	ref := gige.New(gige.DefaultConfig()).RefRate()
	return []func() core.Engine{
		func() core.Engine { return gige.New(gige.DefaultConfig()) },
		func() core.Engine {
			e, err := predict.NewEngine(predict.Spec{Model: model.NewGigE(), Ref: ref})
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		func() core.Engine { return myrinet.New(myrinet.DefaultConfig()) },
	}
}

// offsetEngine numbers its inner engine's flows from 1<<40, so replay's
// flow table must take its map path for every id.
type offsetEngine struct {
	core.Engine
	done []core.Completion
}

const flowOffset = 1 << 40

func (o *offsetEngine) StartFlow(src, dst graph.NodeID, bytes, now float64) int {
	return o.Engine.StartFlow(src, dst, bytes, now) + flowOffset
}

func (o *offsetEngine) Advance(limit float64) ([]core.Completion, float64) {
	done, now := o.Engine.Advance(limit)
	o.done = o.done[:0]
	for _, c := range done {
		c.Flow += flowOffset
		o.done = append(o.done, c)
	}
	return o.done, now
}

func (o *offsetEngine) Reset() {
	if r, ok := o.Engine.(core.Resetter); ok {
		r.Reset()
	}
}

// sameResult reports the first difference between two replay outcomes,
// comparing every float by its bits, or "" when they are identical.
func sameResult(a, b *Result, aerr, berr error) string {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return fmt.Sprintf("errors differ: %v vs %v", aerr, berr)
	}
	if aerr != nil {
		return ""
	}
	bits := math.Float64bits
	if a.Engine != b.Engine || bits(a.Makespan) != bits(b.Makespan) ||
		a.NetTransfers != b.NetTransfers || a.LocalTransfers != b.LocalTransfers || len(a.Tasks) != len(b.Tasks) {
		return fmt.Sprintf("summary differs: %s %v %d/%d vs %s %v %d/%d",
			a.Engine, a.Makespan, a.NetTransfers, a.LocalTransfers, b.Engine, b.Makespan, b.NetTransfers, b.LocalTransfers)
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		if x.Rank != y.Rank || x.Sends != y.Sends || bits(x.Finish) != bits(y.Finish) ||
			bits(x.SendTime) != bits(y.SendTime) || bits(x.RecvTime) != bits(y.RecvTime) ||
			bits(x.BlockedSend) != bits(y.BlockedSend) || bits(x.NetBytes) != bits(y.NetBytes) {
			return fmt.Sprintf("task %d differs: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// checkAgainstScan replays tr with the indexed driver (directly and
// through offsetEngine) and with scanRun on every match engine.
func checkAgainstScan(t *testing.T, tr *trace.Trace, clu cluster.Cluster, place cluster.Placement) {
	t.Helper()
	for _, mk := range matchEngines(t) {
		want, werr := scanRun(mk(), clu, place, tr)
		e := mk()
		got, gerr := Run(e, clu, place, tr)
		if d := sameResult(got, want, gerr, werr); d != "" {
			t.Fatalf("%s: indexed vs scan: %s", e.Name(), d)
		}
		got, gerr = Run(&offsetEngine{Engine: mk()}, clu, place, tr)
		if d := sameResult(got, want, gerr, werr); d != "" {
			t.Fatalf("%s: offset ids vs scan: %s", e.Name(), d)
		}
	}
}

// byteSource reads a fuzz input one byte at a time, then zeros.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % n
}

// fuzzTrace decodes a small trace: 2–6 tasks placed within core
// capacity on up to as many nodes (so some pairs share a node), then a
// global sequence of operations — a message (send appended to the
// source, receive to the destination, possibly AnySource, tags from a
// small reused set), a compute gap on one task, or a barrier on all. Read in this order the
// program is deadlock-free for exact-source receives; AnySource may
// reorder matches, and a resulting deadlock must be reported alike.
func fuzzTrace(data []byte) (*trace.Trace, cluster.Cluster, cluster.Placement) {
	src := &byteSource{b: data}
	n := 2 + src.next(5)
	nodes := (n+1)/2 + src.next(n/2+1)
	place := make(cluster.Placement, n)
	load := make([]int, nodes)
	for r := range place {
		nd := src.next(nodes)
		for load[nd] == 2 { // cluster.Default has two cores per node
			nd = (nd + 1) % nodes
		}
		load[nd]++
		place[r] = graph.NodeID(nd)
	}
	tr := &trace.Trace{Tasks: make([]trace.Task, n)}
	for ops := src.next(40); ops > 0; ops-- {
		switch op := src.next(8); {
		case op < 5:
			from := src.next(n)
			to := (from + 1 + src.next(n-1)) % n
			tag := src.next(3)
			bytes := float64(1+src.next(16)) * 1e6
			peer := from
			if src.next(4) == 0 {
				peer = trace.AnySource
			}
			tr.Tasks[from] = append(tr.Tasks[from], trace.Event{Kind: trace.Send, Peer: to, Tag: tag, Bytes: bytes})
			tr.Tasks[to] = append(tr.Tasks[to], trace.Event{Kind: trace.Recv, Peer: peer, Tag: tag, Bytes: bytes})
		case op < 7:
			r := src.next(n)
			tr.Tasks[r] = append(tr.Tasks[r], trace.Event{Kind: trace.Compute, Duration: float64(src.next(8)) * 1e-3})
		default:
			for r := range tr.Tasks {
				tr.Tasks[r] = append(tr.Tasks[r], trace.Event{Kind: trace.Barrier})
			}
		}
	}
	return tr, cluster.Default(nodes), place
}

// FuzzReplayMatch holds the indexed replay driver bitwise to the scan
// oracle on fuzzed small traces: AnySource receives, reused tags,
// barriers, same-node pairs and compute gaps, on the GigE substrate,
// the GigE predictor and Myrinet, with engine flow ids taken both
// densely and through the map (offsetEngine). The seeds mirror the
// unit tests: a ping, a rendezvous wait, AnySource order, tag
// matching, a barrier and an intra-node copy, plus two sends queued
// before an AnySource receive, which must take the earlier.
func FuzzReplayMatch(f *testing.F) {
	// Layout: tasks-2, nodes-1, placement..., op count, ops... where a
	// message is (op<5, from, to-offset, tag, MB-1, any==0).
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 0, 0, 19, 1})                                     // ping
	f.Add([]byte{0, 1, 0, 1, 2, 5, 1, 7, 0, 0, 0, 0, 19, 1})                            // rendezvous wait
	f.Add([]byte{1, 2, 0, 1, 2, 3, 0, 1, 1, 0, 19, 0, 5, 2, 100, 0, 2, 0, 0, 19, 0})    // AnySource order
	f.Add([]byte{0, 1, 0, 1, 4, 0, 0, 0, 1, 9, 1, 0, 0, 0, 2, 9, 1, 0, 0, 0, 1, 9, 1})  // reused tags
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 5, 3, 20, 7, 0, 2, 1, 0, 9, 1, 7, 1, 3, 0, 0, 3}) // barrier
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 11, 1})                                     // intra-node
	f.Add([]byte{1, 1, 0, 1, 2, 3, 5, 0, 7, 0, 1, 1, 0, 19, 0, 0, 2, 0, 0, 9, 0})       // queued senders, AnySource
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, clu, place := fuzzTrace(data)
		checkAgainstScan(t, tr, clu, place)
	})
}

// compositeTrace is the 20-job composite of the Replay/ bench rows: wide
// and narrow all-to-alls and halo rings, two ranks per node.
func compositeTrace(t testing.TB, jobs int) (*trace.Trace, cluster.Cluster, cluster.Placement) {
	var parts []*trace.Trace
	for j := 0; j < jobs; j++ {
		var (
			p   *trace.Trace
			err error
		)
		switch j % 3 {
		case 0:
			p, err = apps.AllToAll(8, 1, 4e6, 5e-3)
		case 1:
			p, err = apps.Halo2D(4, 2, 2, 4e6, 5e-3)
		default:
			p, err = apps.Broadcast(5, 2, 4e6, 5e-3)
		}
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	tr, err := apps.Compose(parts...)
	if err != nil {
		t.Fatal(err)
	}
	nodes := (len(tr.Tasks) + 1) / 2
	place := make(cluster.Placement, len(tr.Tasks))
	for r := range place {
		place[r] = graph.NodeID(r % nodes)
	}
	return tr, cluster.Default(nodes), place
}

// TestIndexedMatchesScanComposite runs the differential on a multi-job
// composite, where many sends queue per receiver at once.
func TestIndexedMatchesScanComposite(t *testing.T) {
	tr, clu, place := compositeTrace(t, 9)
	checkAgainstScan(t, tr, clu, place)
}

// TestReplayAllocsFlat: on a warm FluidEngine a replay allocates per
// run, not per message — doubling the iterations of a pairwise trace
// must not raise allocs/op — and a warm run allocates only what it
// returns, the Result and its Tasks: the rest of its scratch is
// recycled across runs.
func TestReplayAllocsFlat(t *testing.T) {
	allocs := func(iters int) float64 {
		tr, err := apps.AllToAll(8, iters, 4e6, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		e := gige.New(gige.DefaultConfig())
		clu := cluster.Default(8)
		place := onePerNode(8)
		if _, err := Run(e, clu, place, tr); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(e, clu, place, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	const k = 8
	a, b := allocs(k), allocs(2*k)
	if b > a {
		t.Fatalf("allocs/op grew with the message count: %v at %d iterations, %v at %d", a, k, b, 2*k)
	}
	if a > 2 || b > 2 {
		t.Fatalf("a warm replay allocates %v and %v objects/op, want at most 2 (the Result and its Tasks)", a, b)
	}
	t.Logf("allocs/op: %v at %d iterations, %v at %d", a, k, b, 2*k)
}
