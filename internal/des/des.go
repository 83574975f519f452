// Package des provides a minimal deterministic discrete-event simulation
// kernel: a time-ordered event queue with stable tie-breaking.
//
// It underlies the Myrinet packet-level substrate and the trace replay
// driver. Determinism matters: the paper's evaluation compares measured
// and predicted times, and flaky substrates would make relative errors
// unstable; ties are broken by insertion sequence number.
//
// Event structs are pooled inside the queue: a fired or canceled event
// goes to a free list and is reused by the next Schedule, so long traces
// (millions of packet events) do not churn the garbage collector. The
// free list is bounded (maxFreeEvents): one huge transient trace would
// otherwise pin its peak event count for the life of the queue. Handles
// carry a generation number, which makes Cancel on a stale handle a
// safe no-op even after the underlying struct was reused.
//
// A Queue is single-owner: it has no internal locking, and every method
// must be called from one goroutine (or otherwise externally
// serialized).
package des

import "container/heap"

// Runner is a scheduled callback with a receiver, the allocation-free
// alternative to a closure: callers can pool the implementing struct.
type Runner interface {
	Run()
}

// Event is one pending queue entry. It is owned by the queue and only
// reachable through a Handle.
type Event struct {
	time float64
	fn   func()
	run  Runner

	seq   uint64
	index int
	fired bool
	gen   uint64
}

// Handle identifies a scheduled event for Cancel. The zero Handle is
// valid and cancels nothing. A handle whose event already fired, was
// canceled, or was recycled for a newer event is detected by generation
// and ignored.
type Handle struct {
	ev  *Event
	gen uint64
}

// Queue is a deterministic event queue. The zero value is ready to use.
//
// A Queue must be owned by a single driver goroutine for its lifetime:
// methods are not safe for concurrent use.
type Queue struct {
	h    eventHeap
	seq  uint64
	now  float64
	free []*Event
}

// NewQueue returns a fresh queue. It is equivalent to new(Queue) — the
// zero value is ready.
func NewQueue() *Queue { return new(Queue) }

// maxFreeEvents bounds the event free list, mirroring netsim's
// maxFreeFlows: structs beyond the cap are dropped to the garbage
// collector instead of being retained, so one huge transient trace
// cannot pin its peak event count forever. Generation bumps still
// invalidate handles of dropped structs.
const maxFreeEvents = 1 << 12

// Now returns the current simulation time (the time of the last event
// dispatched by Step, 0 initially).
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Reset empties the queue and rewinds the clock to zero, keeping the
// event free list so a reused queue stays allocation-free.
func (q *Queue) Reset() {
	for _, ev := range q.h {
		q.recycle(ev)
	}
	q.h = q.h[:0]
	q.seq = 0
	q.now = 0
}

// get returns a fresh or recycled event initialized for time t.
func (q *Queue) get(t float64) *Event {
	if t < q.now {
		panic("des: scheduling into the past")
	}
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		ev = new(Event)
	}
	ev.time = t
	ev.fired = false
	ev.seq = q.seq
	q.seq++
	return ev
}

// recycle invalidates outstanding handles and returns ev to the free
// list, dropping it once the list is at capacity (see maxFreeEvents).
func (q *Queue) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.run = nil
	ev.index = -1
	if len(q.free) < maxFreeEvents {
		q.free = append(q.free, ev)
	}
}

// Schedule enqueues fn to run at time t and returns a cancellation
// handle. Scheduling in the past (t < Now) panics: it always indicates a
// simulator bug.
func (q *Queue) Schedule(t float64, fn func()) Handle {
	ev := q.get(t)
	ev.fn = fn
	heap.Push(&q.h, ev)
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleRunner is Schedule for a Runner callback. It exists so hot
// paths can pool their callback state instead of allocating a closure
// per event.
func (q *Queue) ScheduleRunner(t float64, r Runner) Handle {
	ev := q.get(t)
	ev.run = r
	heap.Push(&q.h, ev)
	return Handle{ev: ev, gen: ev.gen}
}

// Cancel removes a pending event. Canceling the zero Handle, an
// already-fired, already-canceled or recycled event is a no-op.
func (q *Queue) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.fired || ev.index < 0 {
		return
	}
	heap.Remove(&q.h, ev.index)
	q.recycle(ev)
}

// PeekTime returns the time of the next event.
func (q *Queue) PeekTime() (float64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].time, true
}

// Step dispatches the next event and returns its time. ok is false when
// the queue is empty.
func (q *Queue) Step() (t float64, ok bool) {
	if len(q.h) == 0 {
		return q.now, false
	}
	ev := heap.Pop(&q.h).(*Event)
	ev.fired = true
	ev.index = -1
	q.now = ev.time
	t = ev.time
	fn, run := ev.fn, ev.run
	// Recycle before dispatch: the callback may Schedule, and reusing
	// this struct immediately keeps the free list tight. The handle is
	// invalidated by the generation bump, and fn/run were captured.
	q.recycle(ev)
	if fn != nil {
		fn()
	} else if run != nil {
		run.Run()
	}
	return t, true
}

// RunUntil dispatches events with time <= t, then sets the clock to t.
func (q *Queue) RunUntil(t float64) {
	for {
		nt, ok := q.PeekTime()
		if !ok || nt > t {
			break
		}
		q.Step()
	}
	if t > q.now {
		q.now = t
	}
}

// Drain dispatches every pending event.
func (q *Queue) Drain() {
	for {
		if _, ok := q.Step(); !ok {
			return
		}
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
