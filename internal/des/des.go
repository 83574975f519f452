// Package des provides a minimal deterministic discrete-event simulation
// kernel: a time-ordered event queue with stable tie-breaking.
//
// It underlies the Myrinet packet-level substrate and the trace replay
// driver. Determinism matters: the paper's evaluation compares measured
// and predicted times, and flaky substrates would make relative errors
// unstable; ties are broken by insertion sequence number.
//
// Pending events are plain values in the queue's heap slice, and every
// callback is a Runner the caller owns (and may pool), so once the heap
// has grown to a run's peak, scheduling and dispatching allocate
// nothing. Events cannot be canceled: a caller that needs to ignore a
// scheduled event checks its own state when it runs.
//
// A Queue is single-owner: it has no internal locking, and every method
// must be called from one goroutine (or otherwise externally
// serialized).
package des

// Runner is a scheduled callback with a receiver: callers can pool the
// implementing struct instead of allocating a closure per event.
type Runner interface {
	Run()
}

// event is one pending queue entry.
type event struct {
	time float64
	seq  uint64
	run  Runner
}

// before is the queue's total order: by time, then by insertion.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Queue is a deterministic event queue. The zero value is ready to use.
//
// A Queue must be owned by a single driver goroutine for its lifetime:
// methods are not safe for concurrent use.
type Queue struct {
	h   []event // binary min-heap under event.before
	seq uint64
	now float64
}

// maxKeptEvents bounds the heap capacity Reset keeps, mirroring the
// other scratch owners' caps: one huge transient run would otherwise
// pin its peak event count for the life of the queue.
const maxKeptEvents = 1 << 14

// Now returns the current simulation time (the time of the last event
// dispatched by Step, 0 initially).
func (q *Queue) Now() float64 { return q.now }

// Reset empties the queue and rewinds the clock to zero. It keeps the
// heap's backing array, so a reused queue stays allocation-free, unless
// a run grew it past maxKeptEvents.
func (q *Queue) Reset() {
	if cap(q.h) > maxKeptEvents {
		q.h = nil
	} else {
		clear(q.h)
		q.h = q.h[:0]
	}
	q.seq = 0
	q.now = 0
}

// Schedule enqueues r to run at time t. Scheduling in the past
// (t < Now) panics: it always indicates a simulator bug.
func (q *Queue) Schedule(t float64, r Runner) {
	if t < q.now {
		panic("des: scheduling into the past")
	}
	q.h = append(q.h, event{time: t, seq: q.seq, run: r})
	q.seq++
	q.up(len(q.h) - 1)
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
	n := len(q.h) - 1
	if n < 0 {
		return q.now, false
	}
	ev := q.h[0]
	q.h[0] = q.h[n]
	q.h[n] = event{} // drop the Runner reference
	q.h = q.h[:n]
	if n > 1 {
		q.down(0)
	}
	q.now = ev.time
	ev.run.Run()
	return ev.time, true
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

// up moves h[j] toward the root until its parent is before it.
func (q *Queue) up(j int) {
	h := q.h
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
}

// down moves h[i] toward the leaves until neither child is before it.
func (q *Queue) down(i int) {
	h := q.h
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}
