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
package replay

import (
	"fmt"
	"math"

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
	phaseSendWait // reached a send, waiting for matching recv or transfer end
	phaseRecvWait // reached a recv, waiting for matching send or transfer end
	phaseBarrier
	phaseDone
)

// pendingSend is a send that has reached its call and awaits matching.
type pendingSend struct {
	from, to int
	tag      int
	bytes    float64
	atTime   float64 // when the sender reached the call
	seq      int     // global arrival order for deterministic ANY_SOURCE
}

// pendingRecv is a posted receive awaiting a matching send.
type pendingRecv struct {
	by   int
	from int // trace.AnySource allowed
	tag  int
	seq  int
}

type task struct {
	rank    int
	prog    trace.Task
	pc      int
	phase   taskPhase
	opStart float64 // when the current blocking op began
}

// transfer is an in-flight matched communication.
type transfer struct {
	from, to  int
	sendStart float64 // sender call time
	recvStart float64
	matched   float64 // when both sides were present
	bytes     float64
	local     bool
}

type sim struct {
	eng   core.Engine
	clu   cluster.Cluster
	place cluster.Placement
	// q holds the task-side timers (compute ends, local copies, barrier
	// releases). The replay loop is the queue's single owner.
	q      *des.Queue
	tasks  []*task
	sends  []*pendingSend
	recvs  []*pendingRecv
	seq    int
	flows  map[int]*transfer // engine flow id -> transfer
	inBar  int
	res    Result
	remain int
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
	s := &sim{
		eng:    eng,
		clu:    clu,
		place:  place,
		q:      des.NewQueue(),
		flows:  make(map[int]*transfer),
		remain: tr.NumTasks(),
	}
	s.res.Engine = eng.Name()
	s.res.Tasks = make([]TaskResult, tr.NumTasks())
	for rank := range tr.Tasks {
		t := &task{rank: rank, prog: tr.Tasks[rank]}
		s.tasks = append(s.tasks, t)
		s.res.Tasks[rank].Rank = rank
	}
	// Kick every task off at time zero.
	for _, t := range s.tasks {
		s.step(t, 0)
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return &s.res, nil
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
			for _, c := range done {
				s.finishNetTransfer(c.Flow, c.Time)
			}
			continue
		}
		if !ok {
			if s.remain > 0 {
				return fmt.Errorf("replay: deadlock at t=%.6f: %d tasks blocked with no pending events", now, s.remain)
			}
			return nil
		}
		s.q.Step()
	}
	return nil
}

// step advances task t from time now until it blocks or finishes.
func (s *sim) step(t *task, now float64) {
	for {
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
			tt := t
			s.q.Schedule(now+ev.Duration, func() { s.step(tt, s.q.Now()) })
			return
		case trace.Send:
			t.phase = phaseSendWait
			t.opStart = now
			s.seq++
			s.sends = append(s.sends, &pendingSend{
				from: t.rank, to: ev.Peer, tag: ev.Tag, bytes: ev.Bytes,
				atTime: now, seq: s.seq,
			})
			s.match(now)
			return
		case trace.Recv:
			t.phase = phaseRecvWait
			t.opStart = now
			s.seq++
			s.recvs = append(s.recvs, &pendingRecv{
				by: t.rank, from: ev.Peer, tag: ev.Tag, seq: s.seq,
			})
			s.match(now)
			return
		case trace.Barrier:
			t.phase = phaseBarrier
			s.inBar++
			if s.inBar == s.liveTasks() {
				s.releaseBarrier(now)
			}
			return
		default:
			panic(fmt.Sprintf("replay: unknown event kind %q", ev.Kind))
		}
	}
}

// liveTasks counts tasks that have not finished their program; barriers
// only synchronize those (a finished task cannot reach the barrier).
func (s *sim) liveTasks() int {
	n := 0
	for _, t := range s.tasks {
		if t.phase != phaseDone {
			n++
		}
	}
	return n
}

func (s *sim) releaseBarrier(now float64) {
	s.inBar = 0
	for _, t := range s.tasks {
		if t.phase == phaseBarrier {
			t.phase = phaseReady
			t.pc++
			tt := t
			s.q.Schedule(now, func() { s.step(tt, s.q.Now()) })
		}
	}
}

// match pairs pending sends with pending receives and starts transfers.
func (s *sim) match(now float64) {
	for {
		si, ri := s.findMatch()
		if si < 0 {
			return
		}
		snd := s.sends[si]
		s.sends = append(s.sends[:si], s.sends[si+1:]...)
		rcv := s.recvs[ri]
		s.recvs = append(s.recvs[:ri], s.recvs[ri+1:]...)
		tr := &transfer{
			from:      snd.from,
			to:        rcv.by,
			sendStart: snd.atTime,
			recvStart: s.tasks[rcv.by].opStart,
			matched:   now,
			bytes:     snd.bytes,
			local:     s.place.SameNode(snd.from, rcv.by),
		}
		if tr.local {
			s.res.LocalTransfers++
			dur := s.clu.LocalCopyTime(tr.bytes)
			trCopy := tr
			s.q.Schedule(now+dur, func() { s.finishTransfer(trCopy, s.q.Now()) })
		} else {
			s.res.NetTransfers++
			id := s.eng.StartFlow(s.place[snd.from], s.place[rcv.by], tr.bytes, now)
			s.flows[id] = tr
		}
	}
}

// findMatch returns the indices of the first matching (send, recv) pair
// in posting order, or (-1, -1). Receives match sends with equal tag and
// compatible source; among candidates the earliest-posted send wins.
func (s *sim) findMatch() (int, int) {
	for ri, r := range s.recvs {
		best, bestSeq := -1, math.MaxInt64
		for si, snd := range s.sends {
			if snd.to != r.by || snd.tag != r.tag {
				continue
			}
			if r.from != trace.AnySource && snd.from != r.from {
				continue
			}
			if snd.seq < bestSeq {
				best, bestSeq = si, snd.seq
			}
		}
		if best >= 0 {
			return best, ri
		}
	}
	return -1, -1
}

func (s *sim) finishNetTransfer(flowID int, now float64) {
	tr, ok := s.flows[flowID]
	if !ok {
		panic(fmt.Sprintf("replay: engine reported unknown flow %d", flowID))
	}
	delete(s.flows, flowID)
	s.finishTransfer(tr, now)
}

func (s *sim) finishTransfer(tr *transfer, now float64) {
	sender := s.tasks[tr.from]
	receiver := s.tasks[tr.to]
	sres := &s.res.Tasks[tr.from]
	sres.SendTime += now - tr.sendStart
	sres.BlockedSend += tr.matched - tr.sendStart
	sres.Sends++
	if !tr.local {
		sres.NetBytes += tr.bytes
	}
	s.res.Tasks[tr.to].RecvTime += now - tr.recvStart
	sender.phase = phaseReady
	sender.pc++
	receiver.phase = phaseReady
	receiver.pc++
	s.step(sender, now)
	s.step(receiver, now)
}
