package des

import (
	"testing"
)

// runFunc adapts a closure to Runner for tests.
type runFunc func()

func (f runFunc) Run() { f() }

// drain dispatches every pending event.
func drain(q *Queue) {
	for {
		if _, ok := q.Step(); !ok {
			return
		}
	}
}

func TestOrderAndClock(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(2.0, runFunc(func() { got = append(got, 2) }))
	q.Schedule(1.0, runFunc(func() { got = append(got, 1) }))
	q.Schedule(3.0, runFunc(func() { got = append(got, 3) }))
	drain(&q)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if q.Now() != 3.0 {
		t.Fatalf("Now = %g, want 3", q.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 5; i++ {
		q.Schedule(1.0, runFunc(func() { got = append(got, i) }))
	}
	drain(&q)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

type countRunner struct{ n *int }

func (r *countRunner) Run() { *r.n++ }

// TestScheduleRunner: one Runner scheduled twice dispatches twice, and
// interleaves deterministically with other Runners.
func TestScheduleRunner(t *testing.T) {
	var q Queue
	n := 0
	r := &countRunner{n: &n}
	q.Schedule(1.0, r)
	q.Schedule(3.0, r)
	q.Schedule(2.0, runFunc(func() {
		if n != 1 {
			t.Fatalf("callback at t=2 saw %d runner calls, want 1", n)
		}
	}))
	drain(&q)
	if n != 2 {
		t.Fatalf("runner ran %d times, want 2", n)
	}
}

// TestQueueReset: Reset rewinds the clock, drops pending events and
// keeps the queue usable.
func TestQueueReset(t *testing.T) {
	var q Queue
	q.Schedule(1.0, runFunc(func() {}))
	drain(&q)
	q.Schedule(5.0, runFunc(func() { t.Fatal("event survived Reset") }))
	q.Reset()
	if _, ok := q.PeekTime(); q.Now() != 0 || ok {
		t.Fatalf("after Reset: now=%g pending=%v", q.Now(), ok)
	}
	fired := false
	q.Schedule(1.0, runFunc(func() { fired = true })) // in the past of the pre-Reset clock
	drain(&q)
	if !fired {
		t.Fatal("event scheduled after Reset did not fire")
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []float64
	for _, tm := range []float64{1, 2, 3, 4} {
		q.Schedule(tm, runFunc(func() { got = append(got, tm) }))
	}
	q.RunUntil(2.5)
	if len(got) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", got)
	}
	if q.Now() != 2.5 {
		t.Fatalf("Now = %g, want 2.5", q.Now())
	}
	drain(&q)
	if len(got) != 4 {
		t.Fatalf("fired %v after drain", got)
	}
}

func TestScheduleDuringDispatch(t *testing.T) {
	var q Queue
	var got []string
	q.Schedule(1.0, runFunc(func() {
		got = append(got, "first")
		q.Schedule(2.0, runFunc(func() { got = append(got, "nested") }))
	}))
	drain(&q)
	if len(got) != 2 || got[1] != "nested" {
		t.Fatalf("got %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue
	q.Schedule(5.0, runFunc(func() {}))
	drain(&q)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	q.Schedule(1.0, runFunc(func() {}))
}

func TestPeekAndStepEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue")
	}
	if _, ok := q.Step(); ok {
		t.Fatal("Step on empty queue")
	}
}
