package replay

import (
	"fmt"
	"math"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/des"
	"bwshare/internal/trace"
)

// scanRun is the reference replay driver the indexed one must match bit
// for bit: every pending send and receive is a heap object in one
// global list, every post rescans all pending pairs (findMatch), every
// task timer is a closure and flows map through a Go map. It keeps the
// straightforward matching definition — the first receive in posting
// order that has a compatible send, paired with the earliest-posted
// such send — which the production driver reaches by index.
func scanRun(eng core.Engine, clu cluster.Cluster, place cluster.Placement, tr *trace.Trace) (*Result, error) {
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
	s := &scanSim{
		eng:    eng,
		clu:    clu,
		place:  place,
		flows:  make(map[int]*scanTransfer),
		remain: tr.NumTasks(),
	}
	s.res.Engine = eng.Name()
	s.res.Tasks = make([]TaskResult, tr.NumTasks())
	for rank := range tr.Tasks {
		s.tasks = append(s.tasks, &scanTask{rank: rank, prog: tr.Tasks[rank]})
		s.res.Tasks[rank].Rank = rank
	}
	for _, t := range s.tasks {
		s.step(t, 0)
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return &s.res, nil
}

type scanPhase int

const (
	scanReady scanPhase = iota
	scanComputing
	scanSendWait
	scanRecvWait
	scanBarrier
	scanDone
)

type scanSend struct {
	from, to int
	tag      int
	bytes    float64
	atTime   float64
	seq      int
}

type scanRecv struct {
	by   int
	from int
	tag  int
	seq  int
}

type scanTask struct {
	rank    int
	prog    trace.Task
	pc      int
	phase   scanPhase
	opStart float64
}

type scanTransfer struct {
	from, to  int
	sendStart float64
	recvStart float64
	matched   float64
	bytes     float64
	local     bool
}

// runFunc adapts a closure to des.Runner for the oracle's timers.
type runFunc func()

func (f runFunc) Run() { f() }

type scanSim struct {
	eng    core.Engine
	clu    cluster.Cluster
	place  cluster.Placement
	q      des.Queue
	tasks  []*scanTask
	sends  []*scanSend
	recvs  []*scanRecv
	seq    int
	flows  map[int]*scanTransfer
	inBar  int
	res    Result
	remain int
}

func (s *scanSim) loop() error {
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
				tr, ok := s.flows[c.Flow]
				if !ok {
					panic(fmt.Sprintf("replay: engine reported unknown flow %d", c.Flow))
				}
				delete(s.flows, c.Flow)
				s.finishTransfer(tr, c.Time)
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

func (s *scanSim) step(t *scanTask, now float64) {
	for {
		if t.pc >= len(t.prog) {
			t.phase = scanDone
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
			t.phase = scanComputing
			t.pc++
			tt := t
			s.q.Schedule(now+ev.Duration, runFunc(func() { s.step(tt, s.q.Now()) }))
			return
		case trace.Send:
			t.phase = scanSendWait
			t.opStart = now
			s.seq++
			s.sends = append(s.sends, &scanSend{
				from: t.rank, to: ev.Peer, tag: ev.Tag, bytes: ev.Bytes,
				atTime: now, seq: s.seq,
			})
			s.match(now)
			return
		case trace.Recv:
			t.phase = scanRecvWait
			t.opStart = now
			s.seq++
			s.recvs = append(s.recvs, &scanRecv{by: t.rank, from: ev.Peer, tag: ev.Tag, seq: s.seq})
			s.match(now)
			return
		case trace.Barrier:
			t.phase = scanBarrier
			s.inBar++
			if s.inBar == s.liveTasks() {
				s.inBar = 0
				for _, bt := range s.tasks {
					if bt.phase == scanBarrier {
						bt.phase = scanReady
						bt.pc++
						tt := bt
						s.q.Schedule(now, runFunc(func() { s.step(tt, s.q.Now()) }))
					}
				}
			}
			return
		default:
			panic(fmt.Sprintf("replay: unknown event kind %q", ev.Kind))
		}
	}
}

func (s *scanSim) liveTasks() int {
	n := 0
	for _, t := range s.tasks {
		if t.phase != scanDone {
			n++
		}
	}
	return n
}

func (s *scanSim) match(now float64) {
	for {
		si, ri := s.findMatch()
		if si < 0 {
			return
		}
		snd := s.sends[si]
		s.sends = append(s.sends[:si], s.sends[si+1:]...)
		rcv := s.recvs[ri]
		s.recvs = append(s.recvs[:ri], s.recvs[ri+1:]...)
		tr := &scanTransfer{
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
			s.q.Schedule(now+dur, runFunc(func() { s.finishTransfer(tr, s.q.Now()) }))
		} else {
			s.res.NetTransfers++
			id := s.eng.StartFlow(s.place[snd.from], s.place[rcv.by], tr.bytes, now)
			s.flows[id] = tr
		}
	}
}

// findMatch returns the indices of the first matching (send, recv) pair
// in posting order, or (-1, -1).
func (s *scanSim) findMatch() (int, int) {
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

func (s *scanSim) finishTransfer(tr *scanTransfer, now float64) {
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
	sender.phase = scanReady
	sender.pc++
	receiver.phase = scanReady
	receiver.pc++
	s.step(sender, now)
	s.step(receiver, now)
}
