package replay

import (
	"math"
	"testing"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/predict"
	"bwshare/internal/trace"
)

func testCluster(nodes int) cluster.Cluster {
	c := cluster.Default(nodes)
	return c
}

// onePerNode places rank r on node r.
func onePerNode(n int) cluster.Placement {
	p := make(cluster.Placement, n)
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	return p
}

func engine() core.Engine { return gige.New(gige.DefaultConfig()) }

// TestPingSingleMessage: one rendezvous message between two idle nodes
// takes volume/refRate.
func TestPingSingleMessage(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Send, Peer: 1, Bytes: 20e6}},
		{{Kind: trace.Recv, Peer: 0, Bytes: 20e6}},
	}}
	res, err := Run(engine(), testCluster(2), onePerNode(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 20e6 / (0.75 * 125e6)
	if math.Abs(res.Tasks[0].SendTime-want) > 1e-9 {
		t.Errorf("send time = %g, want %g", res.Tasks[0].SendTime, want)
	}
	if res.NetTransfers != 1 || res.LocalTransfers != 0 {
		t.Errorf("transfers = %d net, %d local; want 1, 0", res.NetTransfers, res.LocalTransfers)
	}
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %g, want %g", res.Makespan, want)
	}
}

// TestRendezvousWait: the sender arrives first and waits for the receiver
// to finish computing; the wait is part of the send time (blocking
// MPI_Send) and recorded as BlockedSend.
func TestRendezvousWait(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Send, Peer: 1, Bytes: 20e6}},
		{
			{Kind: trace.Compute, Duration: 1.0},
			{Kind: trace.Recv, Peer: 0, Bytes: 20e6},
		},
	}}
	res, err := Run(engine(), testCluster(2), onePerNode(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	xfer := 20e6 / (0.75 * 125e6)
	if got := res.Tasks[0].SendTime; math.Abs(got-(1.0+xfer)) > 1e-9 {
		t.Errorf("send time = %g, want %g (1 s wait + transfer)", got, 1.0+xfer)
	}
	if got := res.Tasks[0].BlockedSend; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("blocked send = %g, want 1.0", got)
	}
	// The receiver did not wait: its recv took just the transfer.
	if got := res.Tasks[1].RecvTime; math.Abs(got-xfer) > 1e-9 {
		t.Errorf("recv time = %g, want %g", got, xfer)
	}
}

// TestIntraNodeBypass: same-node tasks use the memory copy path, not the
// network.
func TestIntraNodeBypass(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Send, Peer: 1, Bytes: 12e6}},
		{{Kind: trace.Recv, Peer: 0, Bytes: 12e6}},
	}}
	clu := testCluster(1)
	place := cluster.Placement{0, 0}
	res, err := Run(engine(), clu, place, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetTransfers != 0 || res.LocalTransfers != 1 {
		t.Fatalf("transfers = %d net, %d local; want 0, 1", res.NetTransfers, res.LocalTransfers)
	}
	want := clu.LocalCopyTime(12e6)
	if math.Abs(res.Tasks[0].SendTime-want) > 1e-9 {
		t.Errorf("send time = %g, want %g", res.Tasks[0].SendTime, want)
	}
}

// TestAnySourceOrder: a receiver posting two ANY_SOURCE receives matches
// the two senders in arrival order without deadlock.
func TestAnySourceOrder(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{
			{Kind: trace.Recv, Peer: trace.AnySource, Bytes: 20e6},
			{Kind: trace.Recv, Peer: trace.AnySource, Bytes: 20e6},
		},
		{{Kind: trace.Send, Peer: 0, Bytes: 20e6}},
		{
			{Kind: trace.Compute, Duration: 0.5},
			{Kind: trace.Send, Peer: 0, Bytes: 20e6},
		},
	}}
	res, err := Run(engine(), testCluster(3), onePerNode(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Task 1's message (posted at t=0) must complete before task 2's
	// (posted at t=0.5).
	if !(res.Tasks[1].Finish < res.Tasks[2].Finish) {
		t.Errorf("expected task 1 (early sender) to finish first: %g vs %g",
			res.Tasks[1].Finish, res.Tasks[2].Finish)
	}
}

// TestBarrierSynchronizes: after a barrier, a fast task waits for the
// slow one.
func TestBarrierSynchronizes(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{
			{Kind: trace.Barrier},
			{Kind: trace.Compute, Duration: 0.1},
		},
		{
			{Kind: trace.Compute, Duration: 2.0},
			{Kind: trace.Barrier},
		},
	}}
	res, err := Run(engine(), testCluster(2), onePerNode(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tasks[0].Finish; math.Abs(got-2.1) > 1e-9 {
		t.Errorf("task 0 finish = %g, want 2.1 (2.0 barrier wait + 0.1 compute)", got)
	}
}

// TestConcurrentSendsSeePenalty: two simultaneous sends from one node
// suffer the sharing penalty on the network engine (GigE: 1.5 each).
func TestConcurrentSendsSeePenalty(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Send, Peer: 2, Bytes: 20e6}},
		{{Kind: trace.Send, Peer: 3, Bytes: 20e6}},
		{{Kind: trace.Recv, Peer: 0, Bytes: 20e6}},
		{{Kind: trace.Recv, Peer: 1, Bytes: 20e6}},
	}}
	clu := testCluster(3)
	// Tasks 0 and 1 share node 0; receivers on nodes 1 and 2.
	place := cluster.Placement{0, 0, 1, 2}
	res, err := Run(engine(), clu, place, tr)
	if err != nil {
		t.Fatal(err)
	}
	tref := 20e6 / (0.75 * 125e6)
	for _, rank := range []int{0, 1} {
		if got := res.Tasks[rank].SendTime / tref; math.Abs(got-1.5) > 1e-6 {
			t.Errorf("task %d penalty = %g, want 1.5", rank, got)
		}
	}
}

// TestDeadlockDetection: a receive with no matching send errors out
// rather than hanging.
func TestDeadlockDetection(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Recv, Peer: 1, Bytes: 1e6}},
		{{Kind: trace.Compute, Duration: 0.1}},
	}}
	_, err := Run(engine(), testCluster(2), onePerNode(2), tr)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestTagMatching: messages with different tags do not cross even when
// posted out of order.
func TestTagMatching(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{
			{Kind: trace.Send, Peer: 1, Bytes: 1e6, Tag: 7},
			{Kind: trace.Send, Peer: 1, Bytes: 2e6, Tag: 8},
		},
		{
			{Kind: trace.Recv, Peer: 0, Bytes: 2e6, Tag: 8},
			{Kind: trace.Recv, Peer: 0, Bytes: 1e6, Tag: 7},
		},
	}}
	// Tag 8 is posted first by the receiver but sent second: with
	// blocking rendezvous sends this must still complete (the sender
	// blocks on tag 7 which matches only the second recv... which can
	// never be posted). This is a genuine MPI deadlock; the replayer
	// must detect it.
	_, err := Run(engine(), testCluster(2), onePerNode(2), tr)
	if err == nil {
		t.Fatal("expected deadlock: blocking sends with crossed tags cannot complete")
	}
}

// TestMeasuredVsPredictedSameDriver: the same trace replayed over a
// substrate engine and over the model-driven predictor engine yields
// comparable per-task send-time sums (identical here: a lone transfer has
// penalty 1 in both).
func TestMeasuredVsPredictedSameDriver(t *testing.T) {
	tr := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Send, Peer: 1, Bytes: 20e6}},
		{{Kind: trace.Recv, Peer: 0, Bytes: 20e6}},
	}}
	clu := testCluster(2)
	place := onePerNode(2)
	meas, err := Run(engine(), clu, place, tr)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := predict.NewEngine(predict.Spec{Model: model.NewGigE(), Ref: 0.75 * 125e6})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Run(pe, clu, place, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meas.Tasks[0].SendTime-pred.Tasks[0].SendTime) > 1e-9 {
		t.Errorf("measured %g vs predicted %g for an uncontended transfer",
			meas.Tasks[0].SendTime, pred.Tasks[0].SendTime)
	}
}
