package des

import "testing"

// Tests for the queue's retained memory, mirroring netsim's pool_test:
// one huge transient run must not pin its peak event count in the queue
// forever, while normally sized workloads keep the zero-allocation
// steady state.

// TestResetShedsHugeHeap: Reset drops a heap grown past maxKeptEvents
// and keeps a modest one, without the Runners it held.
func TestResetShedsHugeHeap(t *testing.T) {
	var q Queue
	var r nopRunner
	for i := 0; i <= maxKeptEvents; i++ {
		q.Schedule(float64(i), &r)
	}
	q.Reset()
	if cap(q.h) != 0 {
		t.Fatalf("Reset kept a heap of capacity %d, want it shed past %d", cap(q.h), maxKeptEvents)
	}

	for i := 0; i < 64; i++ {
		q.Schedule(float64(i), &r)
	}
	h := q.h[:cap(q.h)]
	q.Reset()
	if cap(q.h) != cap(h) || &q.h[:1][0] != &h[0] {
		t.Fatal("Reset dropped a modest heap")
	}
	for i, ev := range h {
		if ev.run != nil {
			t.Fatalf("Reset left a Runner in slot %d", i)
		}
	}
}

// TestSteadyStateReusesEvents: once the heap has grown, a
// schedule/fire cycle allocates nothing — the guarantee the Myrinet
// packet path and the replay driver rely on.
func TestSteadyStateReusesEvents(t *testing.T) {
	var q Queue
	var r nopRunner
	// Grow the heap.
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now()+1, &r)
		q.Step()
	}
	if avg := testing.AllocsPerRun(200, func() {
		q.Schedule(q.Now()+1, &r)
		q.Step()
	}); avg != 0 {
		t.Errorf("schedule/fire cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}

type nopRunner struct{}

func (*nopRunner) Run() {}
