// Package myrinet simulates the paper's Myrinet 2000 substrate (IBM
// eServer 325 cluster, MPI_MX) at packet granularity.
//
// Mechanism modelled (Section III-B): cut-through wormhole routing with a
// Stop & Go flow-control protocol and no packet buffering. The sending
// NIC services its active messages round-robin, one packet at a time, and
// when the current packet's destination channel is busy it receives Stop
// and *waits head-of-line* - it does not skip to another message. The
// receiving NIC serves one incoming packet at a time and wakes blocked
// senders in FIFO order (Go).
//
// This head-of-line blocking is exactly what the paper's descriptive
// state-set model abstracts: at any instant the set of transmitting
// communications is an independent set of the conflict graph (no two
// share a sending NIC or a receiving NIC), and over time the NIC
// arbitration cycles through maximal such sets.
package myrinet

import (
	"fmt"

	"bwshare/internal/core"
	"bwshare/internal/des"
	"bwshare/internal/graph"
)

// Config holds the Myrinet substrate parameters.
type Config struct {
	// LineRate is the link capacity in bytes/second. Myrinet 2000 links
	// run at 2 Gbit/s = 250e6 B/s per direction.
	LineRate float64
	// PacketBytes is the wormhole packet size used for arbitration.
	// Smaller packets approximate fluid fairness more closely but cost
	// more events; 64 KiB reproduces the paper's penalties and keeps
	// Linpack-scale traces cheap.
	PacketBytes float64
	// Overhead is the fixed per-packet time in seconds (routing header,
	// DMA turnaround). It lowers effective single-flow rate slightly.
	Overhead float64
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{LineRate: 250e6, PacketBytes: 64 << 10, Overhead: 2e-6}
}

type senderState int

const (
	senderIdle senderState = iota
	senderTransmitting
	senderBlocked
)

type flow struct {
	e         *Engine
	id        int
	src, dst  graph.NodeID
	remaining float64
}

// Run implements des.Runner: the flow arrives at its sender, which
// starts transmitting if it was idle.
func (f *flow) Run() {
	e := f.e
	s := e.senderOf(f.src)
	s.flows = append(s.flows, f)
	if s.state == senderIdle {
		e.tryNext(s, e.q.Now())
	}
}

type sender struct {
	node  graph.NodeID
	flows []*flow
	rr    int
	state senderState
}

type receiver struct {
	node    graph.NodeID
	busy    bool
	waiters []waiter // FIFO of senders stopped on this channel
}

type waiter struct {
	s *sender
	f *flow
}

// packetDone is the pooled packet-completion callback: one live instance
// per in-flight packet, recycled when it fires. Pooling it (des.Queue
// holds its events by value) makes the steady packet loop
// allocation-free, which matters on Linpack-scale traces with millions
// of packet events.
type packetDone struct {
	e  *Engine
	s  *sender
	f  *flow
	r  *receiver
	sz float64
}

// Run implements des.Runner.
func (p *packetDone) Run() {
	e, s, f, r, sz := p.e, p.s, p.f, p.r, p.sz
	*p = packetDone{}
	e.pktFree = append(e.pktFree, p)
	e.finishPacket(s, f, r, sz)
}

// Engine is the Myrinet packet-level engine. It implements core.Engine.
type Engine struct {
	cfg  Config
	q    des.Queue
	snd  map[graph.NodeID]*sender
	rcv  map[graph.NodeID]*receiver
	next int
	done []core.Completion // completions fired during the current Advance

	pktFree  []*packetDone // recycled packet callbacks
	flowFree []*flow       // recycled flow structs
}

var _ core.Engine = (*Engine)(nil)
var _ core.Resetter = (*Engine)(nil)

// New builds a Myrinet engine.
func New(cfg Config) *Engine {
	if cfg.LineRate <= 0 || cfg.PacketBytes <= 0 || cfg.Overhead < 0 {
		panic("myrinet: invalid config")
	}
	return &Engine{
		cfg: cfg,
		snd: make(map[graph.NodeID]*sender),
		rcv: make(map[graph.NodeID]*receiver),
	}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "myrinet" }

// RefRate implements core.Engine: the steady packet rate of a lone flow.
func (e *Engine) RefRate() float64 {
	per := e.cfg.Overhead + e.cfg.PacketBytes/e.cfg.LineRate
	return e.cfg.PacketBytes / per
}

// Reset implements core.Resetter. The event queue, packet-callback and
// flow free lists survive the reset, so repeated runs on one engine stay
// allocation-free.
func (e *Engine) Reset() {
	e.q.Reset()
	clear(e.snd)
	clear(e.rcv)
	e.next = 0
	e.done = nil
}

// StartFlow implements core.Engine.
func (e *Engine) StartFlow(src, dst graph.NodeID, bytes float64, now float64) int {
	if now < e.q.Now() {
		panic(fmt.Sprintf("myrinet: StartFlow at %g before frontier %g", now, e.q.Now()))
	}
	if bytes <= 0 {
		panic("myrinet: StartFlow with non-positive volume")
	}
	if src == dst {
		panic("myrinet: StartFlow with src == dst")
	}
	var f *flow
	if n := len(e.flowFree); n > 0 {
		f = e.flowFree[n-1]
		e.flowFree = e.flowFree[:n-1]
	} else {
		f = new(flow)
	}
	*f = flow{e: e, id: e.next, src: src, dst: dst, remaining: bytes}
	e.next++
	e.q.Schedule(now, f)
	return f.id
}

// Advance implements core.Engine: run until limit or the first instant at
// which one or more flows complete.
func (e *Engine) Advance(limit float64) ([]core.Completion, float64) {
	for {
		t, ok := e.q.PeekTime()
		if !ok || t > limit {
			e.q.RunUntil(limit)
			return nil, e.q.Now()
		}
		e.q.Step()
		// Fold in every event at exactly this instant so simultaneous
		// completions are reported as one batch.
		for {
			t2, ok2 := e.q.PeekTime()
			if !ok2 || t2 != t {
				break
			}
			e.q.Step()
		}
		if len(e.done) > 0 {
			out := e.done
			e.done = nil
			return out, t
		}
	}
}

func (e *Engine) senderOf(n graph.NodeID) *sender {
	s := e.snd[n]
	if s == nil {
		s = &sender{node: n}
		e.snd[n] = s
	}
	return s
}

func (e *Engine) receiverOf(n graph.NodeID) *receiver {
	r := e.rcv[n]
	if r == nil {
		r = &receiver{node: n}
		e.rcv[n] = r
	}
	return r
}

// tryNext lets sender s pick its next flow round-robin and attempt a
// packet; if the destination channel is busy, the sender stops
// head-of-line until woken (Stop & Go).
func (e *Engine) tryNext(s *sender, t float64) {
	if len(s.flows) == 0 {
		s.state = senderIdle
		return
	}
	s.rr %= len(s.flows)
	f := s.flows[s.rr]
	r := e.receiverOf(f.dst)
	if r.busy {
		r.waiters = append(r.waiters, waiter{s: s, f: f})
		s.state = senderBlocked
		return
	}
	e.startPacket(s, f, r, t)
}

func (e *Engine) startPacket(s *sender, f *flow, r *receiver, t float64) {
	s.state = senderTransmitting
	r.busy = true
	sz := f.remaining
	if sz > e.cfg.PacketBytes {
		sz = e.cfg.PacketBytes
	}
	dur := e.cfg.Overhead + sz/e.cfg.LineRate
	var p *packetDone
	if n := len(e.pktFree); n > 0 {
		p = e.pktFree[n-1]
		e.pktFree = e.pktFree[:n-1]
	} else {
		p = new(packetDone)
	}
	*p = packetDone{e: e, s: s, f: f, r: r, sz: sz}
	e.q.Schedule(t+dur, p)
}

func (e *Engine) finishPacket(s *sender, f *flow, r *receiver, sz float64) {
	t := e.q.Now()
	f.remaining -= sz
	r.busy = false
	if f.remaining <= 1e-9 {
		e.removeFlow(s, f)
		e.done = append(e.done, core.Completion{Flow: f.id, Time: t})
		e.flowFree = append(e.flowFree, f) // nothing references it anymore
	} else {
		s.rr++ // move round-robin past the flow that just transmitted
	}
	// Go: wake the first sender stopped on this channel. Pop by copy so
	// the waiters slice keeps its backing array (re-slicing the front
	// away would force every later append to reallocate).
	if n := len(r.waiters); n > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[n-1] = waiter{}
		r.waiters = r.waiters[:n-1]
		e.startPacket(w.s, w.f, r, t)
	}
	e.tryNext(s, t)
}

func (e *Engine) removeFlow(s *sender, f *flow) {
	for i, g := range s.flows {
		if g == f {
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
			if s.rr > i {
				s.rr--
			}
			return
		}
	}
	panic("myrinet: flow not found on its sender")
}
