package des

import (
	"math"
	"testing"
)

// fuzzDeltas are the offsets from Now() that fuzzed events are
// scheduled at. A small set forces ties, 0 included (an event at the
// current instant, also from inside a dispatched Run); 0.1 keeps the
// clock off the dyadic grid.
var fuzzDeltas = [4]float64{0, 0.5, 1, 0.1}

// refEvent is one pending event of the reference model.
type refEvent struct {
	time float64
	seq  int
	id   int
}

// orderFuzz drives a Queue and a reference list side by side. Every
// dispatched event checks that it is the reference's (time, seq)
// minimum and that the clock reads its time, bit for bit.
type orderFuzz struct {
	t       *testing.T
	q       Queue
	pending []refEvent
	seq     int
	runs    int
}

// fuzzEvent is a scheduled event. A non-negative spawn schedules one
// child at Now()+fuzzDeltas[spawn] from inside its Run.
type fuzzEvent struct {
	f     *orderFuzz
	id    int
	spawn int
}

func (e *fuzzEvent) Run() {
	f := e.f
	f.runs++
	want := f.popMin()
	if want.id != e.id || math.Float64bits(want.time) != math.Float64bits(f.q.Now()) {
		f.t.Fatalf("dispatched event %d at %v, want event %d at %v", e.id, f.q.Now(), want.id, want.time)
	}
	if e.spawn >= 0 {
		f.schedule(f.q.Now()+fuzzDeltas[e.spawn], -1)
	}
}

func (f *orderFuzz) schedule(t float64, spawn int) {
	id := f.seq
	f.seq++
	f.pending = append(f.pending, refEvent{time: t, seq: id, id: id})
	f.q.Schedule(t, &fuzzEvent{f: f, id: id, spawn: spawn})
}

// min returns the index of the reference's next event, -1 if none.
func (f *orderFuzz) min() int {
	m := -1
	for i, ev := range f.pending {
		if m < 0 || ev.time < f.pending[m].time ||
			ev.time == f.pending[m].time && ev.seq < f.pending[m].seq {
			m = i
		}
	}
	return m
}

func (f *orderFuzz) popMin() refEvent {
	m := f.min()
	if m < 0 {
		f.t.Fatal("dispatched an event the reference does not hold")
	}
	ev := f.pending[m]
	f.pending = append(f.pending[:m], f.pending[m+1:]...)
	return ev
}

// checkPeek holds PeekTime to the reference minimum.
func (f *orderFuzz) checkPeek() {
	t, ok := f.q.PeekTime()
	m := f.min()
	if ok != (m >= 0) || ok && math.Float64bits(t) != math.Float64bits(f.pending[m].time) {
		f.t.Fatalf("PeekTime = %v, %v; reference holds %d events", t, ok, len(f.pending))
	}
}

// step dispatches one event and checks what Step reports.
func (f *orderFuzz) step() {
	before, had := f.runs, len(f.pending) > 0
	now := f.q.Now()
	t, ok := f.q.Step()
	switch {
	case ok != had:
		f.t.Fatalf("Step ok = %v with %d reference events pending", ok, len(f.pending))
	case ok && (f.runs != before+1 || math.Float64bits(t) != math.Float64bits(f.q.Now())):
		f.t.Fatalf("Step returned %v, clock %v, %d dispatches", t, f.q.Now(), f.runs-before)
	case !ok && math.Float64bits(t) != math.Float64bits(now):
		f.t.Fatalf("empty Step returned %v, clock %v", t, now)
	}
}

// FuzzQueueOrder runs random interleavings of Schedule, Step, RunUntil
// and Reset, and holds the dispatch order bitwise to a sorted
// (time, seq) reference. Each input byte is one operation: 0x00-0x7f
// schedule at Now()+fuzzDeltas[b&3], with a child spawned from Run for
// (b>>2)&7 < 4; 0x80-0xbf Step; 0xff Reset; the rest RunUntil
// Now()+fuzzDeltas[b&3].
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x80, 0x80})
	f.Add([]byte{0x01, 0x02, 0x03, 0x00, 0x04, 0x81, 0xc1, 0x05, 0x80})
	f.Add([]byte{0x00, 0x01, 0x09, 0x0e, 0x02, 0xc2, 0x00, 0x0c, 0xc0, 0x80, 0x80})
	f.Add([]byte{0x03, 0x07, 0x0b, 0xff, 0x00, 0x80, 0x12, 0x13, 0xc3, 0xc3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			return
		}
		fz := &orderFuzz{t: t}
		for _, b := range ops {
			switch {
			case b < 0x80:
				spawn := int(b>>2) & 7
				if spawn >= 4 {
					spawn = -1
				}
				fz.schedule(fz.q.Now()+fuzzDeltas[b&3], spawn)
			case b < 0xc0:
				fz.step()
			case b == 0xff:
				fz.q.Reset()
				fz.pending = fz.pending[:0]
			default:
				until := fz.q.Now() + fuzzDeltas[b&3]
				fz.q.RunUntil(until)
				if m := fz.min(); m >= 0 && fz.pending[m].time <= until {
					t.Fatalf("RunUntil(%v) left an event at %v", until, fz.pending[m].time)
				}
				if math.Float64bits(fz.q.Now()) != math.Float64bits(until) {
					t.Fatalf("RunUntil(%v) left the clock at %v", until, fz.q.Now())
				}
			}
			fz.checkPeek()
		}
		for len(fz.pending) > 0 {
			fz.step()
		}
		fz.step() // empty: reports the clock and no dispatch
		fz.checkPeek()
	})
}
