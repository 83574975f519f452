package apps

import (
	"testing"

	"bwshare/internal/cluster"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/replay"
	"bwshare/internal/sched"
	"bwshare/internal/trace"
)

// replayOn replays tr on the given engine over an 8-node cluster.
func replayOn(t *testing.T, tr *trace.Trace, strat string) *replay.Result {
	t.Helper()
	clu := cluster.Default((tr.NumTasks() + 1) / 2)
	place := sched.MustPlace(strat, clu, tr.NumTasks(), 3)
	res, err := replay.Run(myrinet.New(myrinet.DefaultConfig()), clu, place, tr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res
}

func TestHalo2DCompletes(t *testing.T) {
	tr, err := Halo2D(4, 4, 3, 1e6, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOn(t, tr, "rrn")
	if res.Makespan <= 0 {
		t.Fatal("no progress")
	}
	// 16 tasks x 3 iters x 4 sends each.
	wantSends := 16 * 3 * 4
	total := res.NetTransfers + res.LocalTransfers
	if total != wantSends {
		t.Fatalf("transfers = %d, want %d", total, wantSends)
	}
}

func TestHalo2DOneDimensional(t *testing.T) {
	tr, err := Halo2D(8, 1, 2, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOn(t, tr, "rrp")
	// 8 tasks x 2 iters x 2 sends (only the x dimension).
	if got := res.NetTransfers + res.LocalTransfers; got != 32 {
		t.Fatalf("transfers = %d, want 32", got)
	}
}

func TestHalo2DRejectsOddGrid(t *testing.T) {
	if _, err := Halo2D(3, 4, 1, 1e6, 0); err == nil {
		t.Fatal("odd dimension accepted")
	}
	if _, err := Halo2D(1, 1, 1, 1e6, 0); err == nil {
		t.Fatal("1x1 grid accepted")
	}
}

func TestAllToAllCompletes(t *testing.T) {
	tr, err := AllToAll(8, 2, 2e6, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOn(t, tr, "rrn")
	// p*(p-1) messages per iteration.
	want := 8 * 7 * 2
	if got := res.NetTransfers + res.LocalTransfers; got != want {
		t.Fatalf("transfers = %d, want %d", got, want)
	}
}

func TestAllToAllRequiresPowerOfTwo(t *testing.T) {
	if _, err := AllToAll(6, 1, 1e6, 0); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestBroadcastCompletes(t *testing.T) {
	tr, err := Broadcast(16, 2, 4e6, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOn(t, tr, "rrp")
	// A broadcast over p tasks carries p-1 messages.
	want := 15 * 2
	if got := res.NetTransfers + res.LocalTransfers; got != want {
		t.Fatalf("transfers = %d, want %d", got, want)
	}
}

// TestBroadcastRootNeverReceives: structural property of the tree.
func TestBroadcastRootNeverReceives(t *testing.T) {
	tr, _ := Broadcast(8, 3, 1e6, 0)
	for _, ev := range tr.Tasks[0] {
		if ev.Kind == trace.Recv {
			t.Fatal("root received its own broadcast")
		}
	}
}

// TestComposeTwoApps: two independent applications co-located on one
// cluster complete, and their transfer counts add up.
func TestComposeTwoApps(t *testing.T) {
	a, err := Halo2D(4, 1, 2, 2e6, 0.001) // 4 tasks
	if err != nil {
		t.Fatal(err)
	}
	b, err := Broadcast(4, 2, 4e6, 0.001) // 4 tasks
	if err != nil {
		t.Fatal(err)
	}
	both, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if both.NumTasks() != 8 {
		t.Fatalf("tasks = %d, want 8", both.NumTasks())
	}
	res := replayOn(t, both, "rrn")
	wantA := 4 * 2 * 2 // halo: 4 tasks x 2 iters x 2 sends (1D)
	wantB := 3 * 2     // bcast: 3 messages x 2 iters
	if got := res.NetTransfers + res.LocalTransfers; got != wantA+wantB {
		t.Fatalf("transfers = %d, want %d", got, wantA+wantB)
	}
}

func TestComposeRejectsBarriers(t *testing.T) {
	withBarrier := &trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Barrier}},
		{{Kind: trace.Barrier}},
	}}
	if _, err := Compose(withBarrier); err == nil {
		t.Fatal("barrier trace accepted")
	}
	if _, err := Compose(); err == nil {
		t.Fatal("empty compose accepted")
	}
}

// TestCoLocationInterference: the paper's motivating scenario - an
// application's communications slow down when a second application
// shares the cluster. Compare a broadcast alone vs co-located with an
// all-to-all on the same nodes.
func TestCoLocationInterference(t *testing.T) {
	solo, err := Broadcast(8, 4, 10e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := AllToAll(8, 6, 10e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	clu := cluster.Default(8)
	// Solo run: broadcast tasks on nodes 0..7, one each.
	soloPlace := sched.MustPlace("rrn", clu, 8, 0)
	e := gige.New(gige.DefaultConfig())
	soloRes, err := replay.Run(e, clu, soloPlace, solo)
	if err != nil {
		t.Fatal(err)
	}
	// Co-located: both apps interleaved over the same 8 nodes (16 slots).
	both, err := Compose(solo, noisy)
	if err != nil {
		t.Fatal(err)
	}
	bothPlace := sched.MustPlace("rrn", clu, 16, 0)
	bothRes, err := replay.Run(e, clu, bothPlace, both)
	if err != nil {
		t.Fatal(err)
	}
	soloComm := soloRes.Tasks[0].SendTime
	coComm := bothRes.Tasks[0].SendTime
	if !(coComm > soloComm*1.05) {
		t.Errorf("co-location should slow the broadcast root: solo %.4f s vs co-located %.4f s",
			soloComm, coComm)
	}
}

// TestAppsPredictable: the model-driven predictor replays the same
// composed workload without error and within a loose bound of the
// substrate.
func TestAppsPredictable(t *testing.T) {
	a, _ := AllToAll(8, 2, 5e6, 0.001)
	clu := cluster.Default(4)
	place := sched.MustPlace("rrp", clu, 8, 0)
	me := myrinet.New(myrinet.DefaultConfig())
	meas, err := replay.Run(me, clu, place, a)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := predict.NewEngine(predict.Spec{Model: model.NewMyrinet(), Ref: me.RefRate()})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := replay.Run(pe, clu, place, a)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range meas.Tasks {
		sm, sp := meas.Tasks[rank].SendTime, pred.Tasks[rank].SendTime
		if sm <= 0 {
			continue
		}
		rel := (sp - sm) / sm
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("task %d: predicted %.4f vs measured %.4f (%.0f%%)", rank, sp, sm, rel*100)
		}
	}
}
