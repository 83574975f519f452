// Package replay co-simulates an application trace over a network engine:
// it is the outer half of the paper's simulator (Section VI-A), common to
// "measured" runs (substrate engines) and "predicted" runs (model-driven
// engines from package predict).
//
// Semantics implemented:
//
//   - Compute events occupy the task for their duration.
//   - Send/Recv are blocking and rendezvous: the transfer starts when
//     both sides have reached their call (the paper measures MPI_Send of
//     large messages, which MPICH/MX/MVAPICH all run in rendezvous
//     mode), and both sides return when the transfer completes.
//   - Messages match per (source, tag) in FIFO order; a receive with
//     trace.AnySource matches the earliest available send with its tag,
//     like the paper's benchmark does to avoid fixing receive order.
//   - Barriers release every task at the instant the last one arrives.
//   - Transfers between two tasks on the same cluster node bypass the
//     network and cost cluster.LocalCopyTime(bytes).
//
// Cost: one replay event costs what it touches, not the task or message
// population. After every post no pending send/receive pair matches,
// and a blocked task has exactly one pending operation, so a new send
// can only match its receiver's pending receive and a new receive only
// a send queued to its rank; each is found by index (see postSend and
// postRecv). Tasks and transfers are the queue's callbacks themselves
// (des.Runner), transfer records are recycled, and engine flow ids map
// to transfers through a dense table, so a replay allocates per run,
// not per message. The whole per-run scratch — the event queue, the
// task table, the transfer records, the flow table — is pooled across
// runs as well, so a warm Run allocates only the Result it returns and
// its Tasks.
package replay

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/des"
	"bwshare/internal/trace"
)

// TaskResult aggregates one task's timing.
type TaskResult struct {
	Rank int
	// Finish is when the task's program completed.
	Finish float64
	// SendTime is the summed duration of its sends, call to return
	// (the paper's Sm / Sp per-task communication sums).
	SendTime float64
	// RecvTime is the summed duration of its receives.
	RecvTime float64
	// BlockedSend is the part of SendTime spent waiting for the
	// receiver to arrive (rendezvous wait, not bandwidth).
	BlockedSend float64
	// Sends and NetBytes count this task's outgoing messages.
	Sends    int
	NetBytes float64
}

// Result is the outcome of one replay.
type Result struct {
	Engine   string
	Tasks    []TaskResult
	Makespan float64
	// NetTransfers / LocalTransfers split messages by placement.
	NetTransfers   int
	LocalTransfers int
}

// CommTimes returns the per-task send-time sums (the quantity the paper
// compares between measurement and prediction in Figures 8-9).
func (r *Result) CommTimes() []float64 {
	out := make([]float64, len(r.Tasks))
	for i, t := range r.Tasks {
		out[i] = t.SendTime
	}
	return out
}

type taskPhase int

const (
	phaseReady taskPhase = iota
	phaseComputing
	phaseSendPosted // reached a send, no matching receive yet
	phaseRecvPosted // reached a receive, no matching send yet
	phaseTransfer   // matched; waiting for the transfer to end
	phaseBarrier
	phaseDone
)

type task struct {
	s       *sim
	rank    int
	prog    trace.Task
	pc      int
	phase   taskPhase
	opStart float64 // when the current blocking op began
	// inHead and inTail delimit this rank's inbox: the ranks whose
	// posted send targets it and is still unmatched, in posting order,
	// linked through next (-1 ends the list).
	inHead, inTail, next int
}

// Run implements des.Runner: a task timer (compute end, barrier
// release) resumes the task at the queue's clock.
func (t *task) Run() { t.s.step(t, t.s.q.Now()) }

// transfer is an in-flight matched communication. Records are recycled
// within and across runs (sim.free).
type transfer struct {
	s         *sim
	from, to  int
	sendStart float64 // sender call time
	recvStart float64
	matched   float64 // when both sides were present
	bytes     float64
	local     bool
}

// Run implements des.Runner: a local copy ends at the queue's clock.
func (tr *transfer) Run() { tr.s.finishTransfer(tr, tr.s.q.Now()) }

// flowTable maps engine flow ids to in-flight network transfers. A
// reset FluidEngine numbers flows 0, 1, ... and a trace starts at most
// one flow per send, so ids below the send count index a slice;
// core.Engine promises only unique ids, and any other id goes to a map.
type flowTable struct {
	dense []*transfer
	big   map[int]*transfer
}

func (ft *flowTable) put(id int, tr *transfer) {
	if uint(id) < uint(len(ft.dense)) {
		ft.dense[id] = tr
		return
	}
	if ft.big == nil {
		ft.big = make(map[int]*transfer)
	}
	ft.big[id] = tr
}

// take removes and returns the transfer of flow id.
func (ft *flowTable) take(id int) *transfer {
	var tr *transfer
	if uint(id) < uint(len(ft.dense)) {
		tr, ft.dense[id] = ft.dense[id], nil
	} else if tr = ft.big[id]; tr != nil {
		delete(ft.big, id)
	}
	if tr == nil {
		panic(fmt.Sprintf("replay: engine reported unknown flow %d", id))
	}
	return tr
}

type sim struct {
	eng   core.Engine
	clu   cluster.Cluster
	place cluster.Placement
	// q holds the task-side timers (compute ends, local copies, barrier
	// releases). The replay loop is the queue's single owner.
	q      des.Queue
	tasks  []task
	free   []*transfer // finished transfer records, reused
	flows  flowTable
	done   []core.Completion // copy of the engine's last completions
	inBar  int
	res    Result
	remain int // tasks that have not finished their program
}

// sims holds idle replay scratch for the next Run: a free list of at
// most GOMAXPROCS sims, one per Run that can execute at once. It is a
// plain list rather than a sync.Pool so that a warm Run allocates the
// same under the race detector, which makes a sync.Pool drop entries at
// random. A sim goes back holding no reference into its run (engine,
// placement, trace programs, results), so the list pins only buffers.
var sims struct {
	sync.Mutex
	idle []*sim
}

// getSim returns an idle sim, or a new one.
func getSim() *sim {
	sims.Lock()
	defer sims.Unlock()
	if n := len(sims.idle); n > 0 {
		s := sims.idle[n-1]
		sims.idle[n-1] = nil
		sims.idle = sims.idle[:n-1]
		return s
	}
	return new(sim)
}

// putSim empties s and keeps it for a later Run, unless GOMAXPROCS
// sims already wait.
func putSim(s *sim) {
	s.release()
	sims.Lock()
	defer sims.Unlock()
	if len(sims.idle) < runtime.GOMAXPROCS(0) {
		sims.idle = append(sims.idle, s)
	}
}

// maxPooledLen bounds the buffers an idle sim keeps: one replay of a
// huge trace (many tasks, sends or transfers in flight) would otherwise
// pin its task table and flow table on the idle list for good. Past it
// the buffer is dropped instead; the event queue's Reset sheds its own
// heap the same way.
const maxPooledLen = 1 << 14

// release empties s for the idle list, shedding what one huge run
// inflated.
func (s *sim) release() {
	if cap(s.tasks) > maxPooledLen {
		s.tasks = nil
	}
	clear(s.tasks)
	s.q.Reset()
	if cap(s.flows.dense) > maxPooledLen {
		s.flows.dense = nil
	}
	if len(s.flows.big) > maxPooledLen {
		s.flows.big = nil
	}
	clear(s.flows.big)
	if len(s.free) > maxPooledLen {
		s.free = nil
	}
	if cap(s.done) > maxPooledLen {
		s.done = nil
	}
	*s = sim{q: s.q, tasks: s.tasks[:0], free: s.free, flows: s.flows, done: s.done[:0]}
}

// Run replays tr over eng with the given cluster and placement. The
// engine is reset first if it supports it.
func Run(eng core.Engine, clu cluster.Cluster, place cluster.Placement, tr *trace.Trace) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := clu.Validate(); err != nil {
		return nil, err
	}
	if len(place) != tr.NumTasks() {
		return nil, fmt.Errorf("replay: placement has %d entries for %d tasks", len(place), tr.NumTasks())
	}
	if err := place.Validate(clu); err != nil {
		return nil, err
	}
	if r, ok := eng.(core.Resetter); ok {
		r.Reset()
	}
	n := tr.NumTasks()
	s := getSim()
	defer putSim(s)
	s.eng, s.clu, s.place, s.remain = eng, clu, place, n
	s.tasks = slices.Grow(s.tasks, n)[:n]
	sends := 0
	for _, prog := range tr.Tasks {
		for _, ev := range prog {
			if ev.Kind == trace.Send {
				sends++
			}
		}
	}
	s.flows.dense = slices.Grow(s.flows.dense[:0], sends)[:sends]
	clear(s.flows.dense) // a failed run leaves entries behind
	// The result is the run's own memory, never a recycled sim's.
	s.res = Result{Engine: eng.Name(), Tasks: make([]TaskResult, n)}
	for rank := range s.tasks {
		s.tasks[rank] = task{s: s, rank: rank, prog: tr.Tasks[rank], inHead: -1, inTail: -1, next: -1}
		s.res.Tasks[rank].Rank = rank
	}
	// Kick every task off at time zero.
	for rank := range s.tasks {
		s.step(&s.tasks[rank], 0)
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	res := new(Result)
	*res = s.res
	return res, nil
}

// loop interleaves engine progress with task timers until all tasks end.
func (s *sim) loop() error {
	guard := 0
	for s.remain > 0 {
		if guard++; guard > 100_000_000 {
			return fmt.Errorf("replay: event budget exceeded (livelock?)")
		}
		tq, ok := s.q.PeekTime()
		if !ok {
			tq = core.Inf
		}
		done, now := s.eng.Advance(tq)
		if len(done) > 0 {
			// Finishing a transfer may start flows, and the engine's
			// slice is valid only until the next StartFlow.
			s.done = append(s.done[:0], done...)
			for _, c := range s.done {
				s.finishTransfer(s.flows.take(c.Flow), c.Time)
			}
			continue
		}
		if !ok {
			return fmt.Errorf("replay: deadlock at t=%.6f: %d tasks blocked with no pending events", now, s.remain)
		}
		s.q.Step()
	}
	return nil
}

// step advances task t from time now until it blocks or finishes.
func (s *sim) step(t *task, now float64) {
	if t.pc >= len(t.prog) {
		t.phase = phaseDone
		s.res.Tasks[t.rank].Finish = now
		if now > s.res.Makespan {
			s.res.Makespan = now
		}
		s.remain--
		return
	}
	ev := t.prog[t.pc]
	switch ev.Kind {
	case trace.Compute:
		t.phase = phaseComputing
		t.pc++
		s.q.Schedule(now+ev.Duration, t)
	case trace.Send:
		t.opStart = now
		s.postSend(t, ev, now)
	case trace.Recv:
		t.opStart = now
		s.postRecv(t, ev, now)
	case trace.Barrier:
		t.phase = phaseBarrier
		s.inBar++
		// Barriers synchronize only the tasks still running: a
		// finished task cannot reach one.
		if s.inBar == s.remain {
			s.releaseBarrier(now)
		}
	default:
		panic(fmt.Sprintf("replay: unknown event kind %q", ev.Kind))
	}
}

func (s *sim) releaseBarrier(now float64) {
	s.inBar = 0
	for i := range s.tasks {
		if t := &s.tasks[i]; t.phase == phaseBarrier {
			t.phase = phaseReady
			t.pc++
			s.q.Schedule(now, t)
		}
	}
}

// accepts reports whether receive ev takes a send from rank from with
// tag tag: equal tags and a compatible source.
func accepts(ev trace.Event, from, tag int) bool {
	return ev.Tag == tag && (ev.Peer == trace.AnySource || ev.Peer == from)
}

// Matching. Messages match per (source, tag) in FIFO order, and a
// receive takes the earliest-posted compatible send. Since no pending
// pair matches after any post, and a rank has at most one pending
// operation, a post makes at most one match, and only with the peers
// below.

// postSend posts t's send ev: it matches the receiver's pending receive
// if that accepts it, or else joins the tail of the receiver's inbox.
func (s *sim) postSend(t *task, ev trace.Event, now float64) {
	r := &s.tasks[ev.Peer]
	if r.phase == phaseRecvPosted && accepts(r.prog[r.pc], t.rank, ev.Tag) {
		s.start(t, r, now)
		return
	}
	t.phase = phaseSendPosted
	t.next = -1
	if r.inTail < 0 {
		r.inHead = t.rank
	} else {
		s.tasks[r.inTail].next = t.rank
	}
	r.inTail = t.rank
}

// postRecv posts t's receive ev: it matches the first send of t's inbox,
// in posting order, that it accepts, or else waits.
func (s *sim) postRecv(t *task, ev trace.Event, now float64) {
	prev := -1
	for i := t.inHead; i >= 0; prev, i = i, s.tasks[i].next {
		snd := &s.tasks[i]
		if !accepts(ev, i, snd.prog[snd.pc].Tag) {
			continue
		}
		if prev < 0 {
			t.inHead = snd.next
		} else {
			s.tasks[prev].next = snd.next
		}
		if t.inTail == i {
			t.inTail = prev
		}
		s.start(snd, t, now)
		return
	}
	t.phase = phaseRecvPosted
}

// start begins the transfer of snd's posted send to rcv, matched at now:
// a local copy on the task queue or a flow on the engine.
func (s *sim) start(snd, rcv *task, now float64) {
	snd.phase, rcv.phase = phaseTransfer, phaseTransfer
	var tr *transfer
	if n := len(s.free); n > 0 {
		tr, s.free = s.free[n-1], s.free[:n-1]
	} else {
		tr = new(transfer)
	}
	*tr = transfer{
		s:         s,
		from:      snd.rank,
		to:        rcv.rank,
		sendStart: snd.opStart,
		recvStart: rcv.opStart,
		matched:   now,
		bytes:     snd.prog[snd.pc].Bytes,
		local:     s.place.SameNode(snd.rank, rcv.rank),
	}
	if tr.local {
		s.res.LocalTransfers++
		s.q.Schedule(now+s.clu.LocalCopyTime(tr.bytes), tr)
	} else {
		s.res.NetTransfers++
		s.flows.put(s.eng.StartFlow(s.place[tr.from], s.place[tr.to], tr.bytes, now), tr)
	}
}

func (s *sim) finishTransfer(tr *transfer, now float64) {
	sender, receiver := &s.tasks[tr.from], &s.tasks[tr.to]
	sres := &s.res.Tasks[tr.from]
	sres.SendTime += now - tr.sendStart
	sres.BlockedSend += tr.matched - tr.sendStart
	sres.Sends++
	if !tr.local {
		sres.NetBytes += tr.bytes
	}
	s.res.Tasks[tr.to].RecvTime += now - tr.recvStart
	s.free = append(s.free, tr)
	sender.phase = phaseReady
	sender.pc++
	receiver.phase = phaseReady
	receiver.pc++
	s.step(sender, now)
	s.step(receiver, now)
}
