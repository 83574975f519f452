package replay

import (
	"reflect"
	"testing"

	"bwshare/internal/apps"
	"bwshare/internal/cluster"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/trace"
)

// TestResultsOutliveRecycledScratch: a Result is the caller's own
// memory. Runs of other traces on recycled scratch, on the same engine,
// leave an earlier Result exactly as it was returned, and a rerun of
// the first trace reproduces it.
func TestResultsOutliveRecycledScratch(t *testing.T) {
	small, err := apps.AllToAll(4, 3, 2e6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := apps.Halo2D(4, 2, 5, 1e6, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	e := gige.New(gige.DefaultConfig())
	first, err := Run(e, cluster.Default(4), onePerNode(4), small)
	if err != nil {
		t.Fatal(err)
	}
	kept := *first
	kept.Tasks = append([]TaskResult(nil), first.Tasks...)
	for i := 0; i < 3; i++ {
		if _, err := Run(e, cluster.Default(8), onePerNode(8), big); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(*first, kept) {
		t.Fatal("a later replay changed an earlier Result")
	}
	again, err := Run(e, cluster.Default(4), onePerNode(4), small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*again, kept) {
		t.Fatalf("a replay on recycled scratch differs from the first:\n got %+v\nwant %+v", *again, kept)
	}
	if &again.Tasks[0] == &first.Tasks[0] {
		t.Fatal("two Results share their Tasks")
	}
}

// TestReleaseShedsHugeScratch: a sim that replayed a huge trace drops
// its inflated buffers when it goes idle instead of pinning them, keeps
// modest ones, and holds no reference into the finished run.
func TestReleaseShedsHugeScratch(t *testing.T) {
	huge := &sim{
		tasks: make([]task, maxPooledLen+1),
		free:  make([]*transfer, maxPooledLen+1),
		flows: flowTable{dense: make([]*transfer, maxPooledLen+1)},
	}
	huge.release()
	if cap(huge.tasks) != 0 || huge.free != nil || huge.flows.dense != nil {
		t.Fatalf("release kept huge buffers: tasks %d, free %d, flows %d",
			cap(huge.tasks), len(huge.free), cap(huge.flows.dense))
	}

	modest := &sim{tasks: make([]task, 8), flows: flowTable{dense: make([]*transfer, 8)}}
	modest.tasks[0].prog = trace.Task{{Kind: trace.Compute, Duration: 1}}
	modest.res.Tasks = make([]TaskResult, 8)
	modest.q.Schedule(1, &modest.tasks[0])
	modest.release()
	if cap(modest.tasks) != 8 || cap(modest.flows.dense) != 8 {
		t.Fatal("release dropped modest buffers")
	}
	if modest.tasks[:1][0].prog != nil || modest.res.Tasks != nil || modest.eng != nil {
		t.Fatal("an idle sim still references its last run")
	}
	if _, ok := modest.q.PeekTime(); ok {
		t.Fatal("an idle sim still holds a pending event")
	}
}
