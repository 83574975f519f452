// Package predict implements the paper's simulator core (Section VI-A):
// model-driven prediction of communication times.
//
// The paper's formulas give static penalties for a fixed conflict graph,
// but its simulator evaluates them progressively: every active
// communication proceeds at instantaneous rate base/penalty where the
// penalty is recomputed on the *currently active* conflict graph each
// time a communication finishes. The distinction is observable in the
// paper's own Figure 4: the static penalty of communication (c) is 2.77
// (0.132 s) while the printed prediction is 0.113 s, which is exactly
// what progressive re-evaluation yields. See EXP-A1 for the ablation.
//
// Re-evaluating only what changed is exact. A penalty is fixed by the
// comm's same-source/same-destination component (the core.Model
// contract), so the engine's allocator re-scores just the flows whose
// component a start, a completion or a NIC fault touched —
// netsim.DirtyTracker names them, the same component walk the
// substrates' IncrementalAllocator uses — as one conflict graph, and
// every other flow keeps its rate. On a multi-switch fabric only the
// uplink water-fill, level-based over the whole flow set, reruns over
// every active flow.
//
// NewEngine wraps any core.Model as a core.Engine, so predicted times and
// substrate-measured times come from running the same drivers. A Spec
// names everything that selects the engine — model, reference rate,
// fabric and fault schedule — and NewEngine is the one place that turns
// it into an engine.
//
// Two calling conventions are offered: the one-shot package functions
// (Times, Penalties) allocate a fresh engine per call (StaticTimes needs
// none), and the handle-based Session (New) reuses one pooled engine
// plus scratch buffers across predictions — the serving path of
// cmd/bwserved holds one Session per worker per model.
package predict

import (
	"fmt"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/topology"
)

// Spec selects a prediction engine. The fabric and the fault schedule
// are independent: any combination is valid.
type Spec struct {
	Model core.Model
	// Ref is the idle-network single-flow rate in bytes/second (penalty
	// 1). On a fabric it doubles as the host access rate from which
	// uplink capacities derive.
	Ref float64
	// Topo is the fabric; a trivial one is the paper's crossbar. The
	// model's penalties set each flow's crossbar-level rate, then the
	// fabric's shared uplinks cap them (netsim.TopoFiller).
	Topo topology.Spec
	// Faults degrade the fabric mid-replay: the schedule compiles into a
	// timeline the engine steps, host slowdowns cap the model-level
	// rates of the affected endpoints, and link faults scale the
	// fabric's uplinks. Empty means healthy.
	Faults fault.Schedule
}

// NewEngine returns the fluid engine of s, whose instantaneous rates
// are Ref/penalty(Model, active conflict graph). The model must be
// component-local (see core.Model): Myrinet under any conflict rule
// but graph.SameRole is refused, as its penalties cross the sender and
// receiver components the engine re-scores. The schedule must validate
// against Topo and must not contain a permanent zero-capacity fault (a
// flow behind one would never complete, so no finite prediction
// exists). A healthy spec with a registry model cannot fail.
func NewEngine(s Spec) (*netsim.FluidEngine, error) {
	if my, ok := s.Model.(model.Myrinet); ok && my.Rule != graph.SameRole {
		return nil, fmt.Errorf("predict: myrinet under the %s conflict rule is not component-local and has no progressive prediction; use its static penalties", my.Rule)
	}
	var tl *fault.Timeline
	if !s.Faults.Empty() {
		if err := s.Faults.Validate(s.Topo); err != nil {
			return nil, err
		}
		if i := s.Faults.PermanentZero(); i >= 0 {
			return nil, fmt.Errorf("fault: event %d (%s): permanent zero-capacity fault stalls prediction forever; add an until clause", i, s.Faults.Events[i])
		}
		tl = fault.Compile(s.Faults)
	}
	e := netsim.NewFluidEngine(s.engineName(), s.Ref, newModelAllocator(s.Model, s.Ref, s.Topo, tl))
	if tl != nil {
		e.SetFaults(tl)
	}
	return e, nil
}

// engineName is predict-<model>, then -<fabric kind> on a fabric and
// -faulted under a schedule.
func (s Spec) engineName() string {
	name := "predict-" + s.Model.Name()
	if !s.Topo.Trivial() {
		name += "-" + s.Topo.Kind.String()
	}
	if !s.Faults.Empty() {
		name += "-faulted"
	}
	return name
}

// modelAllocator adapts a penalty Model to the fluid Allocator
// interface. Its embedded DirtyTracker (the component index
// IncrementalAllocator uses too) names the flows whose sender or
// receiver component an arrival, a departure or a host fault touched
// since the last fill, and only they are re-scored; every other flow
// keeps the crossbar-level rate already in Flow.CrossbarRate. Scoring
// the dirty flows as one graph equals scoring every active flow bit for
// bit, because a penalty is fixed by the comm's same-source/same-
// destination component and not by comm order (the core.Model
// contract), the dirty set is a union of whole components, and the
// host cap is per flow. So the dirty flows are scored in the order
// Dirty yields them, unsorted, in an allocator-owned scratch graph
// built in the numbering the tracker's walk just gave their sender and
// receiver slots (graph.RebuildNumbered), so no endpoint is renumbered
// per event. On a fabric the components stay over the NICs, and
// TopoFiller then water-fills every active flow, in active-slice
// order, capped by its crossbar-level rate; a link fault touches no
// component and moves rates through that fill alone. With a model
// offering PenaltiesInto a fill allocates nothing.
type modelAllocator struct {
	netsim.DirtyTracker

	m    core.Model
	into scratchModel // m's scratch-taking form, or nil
	scr  model.Scratch
	ref  float64
	topo topology.Spec // on a non-trivial fabric, uplinks cap the rates
	// faults, when non-nil, is the shared overlay of a fault.Timeline the
	// engine steps: the model's penalties assume healthy NICs, so each
	// flow's rate is additionally capped by its endpoints' degraded NIC
	// shares, ref * factor. Healthy engines leave it nil.
	faults *fault.State
	tf     netsim.TopoFiller // uplink water-fill scratch

	comms    []graph.Comm // scratch: the flows being scored
	src, dst []int        // scratch: their local slot indices
	g        graph.Graph  // scratch: their conflict graph
}

// scratchModel is the allocation-free form a penalty model may offer
// (model.DegreeModel, KimLee and Linear do). A wrapper that embeds
// core.Model and overrides only Penalties does not have it, so the
// allocator calls the wrapper's Penalties and it sees every evaluation.
type scratchModel interface {
	PenaltiesInto(g *graph.Graph, s *model.Scratch) []float64
}

// newModelAllocator returns the allocator for m on topo, stepping the
// timeline tl's fault state when tl is non-nil.
func newModelAllocator(m core.Model, refRate float64, topo topology.Spec, tl *fault.Timeline) *modelAllocator {
	a := &modelAllocator{m: m, ref: refRate, topo: topo}
	a.into, _ = m.(scratchModel)
	if tl != nil {
		a.faults = tl.State()
		a.tf.Faults = tl.State()
	}
	return a
}

// Allocate implements netsim.Allocator.
func (a *modelAllocator) Allocate(flows []*netsim.Flow) {
	if len(flows) == 0 {
		return
	}
	if dirty := a.Dirty(flows); len(dirty) > 0 {
		a.comms = a.comms[:0]
		a.src, a.dst = a.src[:0], a.dst[:0]
		for _, f := range dirty {
			a.comms = append(a.comms, graph.Comm{Src: f.Src, Dst: f.Dst, Volume: f.Remaining})
			a.src = append(a.src, int(a.Local(f, 0)))
			a.dst = append(a.dst, int(a.Local(f, 1)))
		}
		graph.RebuildNumbered(&a.g, a.comms, a.src, a.dst, a.NumLocal())
		a.score(dirty)
		a.Clean()
	}
	if !a.topo.Trivial() {
		for _, f := range flows {
			f.Rate = f.CrossbarRate
		}
		a.tf.Apply(flows, a.topo, a.ref)
	}
}

// score sets the crossbar-level rates of flows, whose conflict graph
// a.g must already hold: model penalties set them and degraded
// endpoints cap them.
func (a *modelAllocator) score(flows []*netsim.Flow) {
	var p []float64
	if a.into != nil {
		p = a.into.PenaltiesInto(&a.g, &a.scr)
	} else {
		p = a.m.Penalties(&a.g)
	}
	for i, f := range flows {
		r := a.ref / p[i]
		if a.faults != nil {
			if c := a.ref * a.faults.HostFactor(int(f.Src)); c < r {
				r = c
			}
			if c := a.ref * a.faults.HostFactor(int(f.Dst)); c < r {
				r = c
			}
		}
		f.Rate, f.CrossbarRate = r, r
	}
}

// Session is a reusable prediction context: one model, one reference
// rate, one pooled fluid engine, and scratch buffers that survive across
// calls. A Session is not safe for concurrent use; give each worker its
// own. Returned slices are owned by the Session and are valid only until
// its next method call — copy them out to retain results.
type Session struct {
	m   core.Model
	ref float64
	eng *netsim.FluidEngine

	flow  []int     // flow id of comm i in the current run
	rev   []int     // comm index of flow id (inverse of flow)
	times []float64 // result buffer
}

// New builds a reusable prediction context on the engine of s (see
// NewEngine). The static formulas (StaticTimes, StaticPenalties) stay
// the paper's crossbar-level expressions: only the progressive times
// feel the fabric and the faults, and every Times call replays the
// schedule from t=0 (Reset rewinds the timeline with the engine).
func New(s Spec) (*Session, error) {
	e, err := NewEngine(s)
	if err != nil {
		return nil, err
	}
	return &Session{m: s.Model, ref: s.Ref, eng: e}, nil
}

// NewSession is New on the healthy crossbar.
func NewSession(m core.Model, refRate float64) *Session {
	return NewSessionWithTopology(m, refRate, topology.Spec{})
}

// NewSessionWithTopology is New on a healthy fabric. It panics on a
// model NewEngine refuses; only code inside the module can build one.
func NewSessionWithTopology(m core.Model, refRate float64, topo topology.Spec) *Session {
	s, err := New(Spec{Model: m, Ref: refRate, Topo: topo})
	if err != nil {
		panic(err)
	}
	return s
}

// NewSessionWithFaults is New on a degraded fabric.
func NewSessionWithFaults(m core.Model, refRate float64, topo topology.Spec, sched fault.Schedule) (*Session, error) {
	return New(Spec{Model: m, Ref: refRate, Topo: topo, Faults: sched})
}

// Model returns the session's penalty model.
func (s *Session) Model() core.Model { return s.m }

// RefRate returns the session's reference rate in bytes/second.
func (s *Session) RefRate() float64 { return s.ref }

// Times predicts the duration of every communication of g with
// progressive evaluation, all communications starting at time zero (the
// synthetic benchmark protocol of Section IV-B). Result is indexed by
// graph.CommID and valid until the next call on s.
func (s *Session) Times(g *graph.Graph) []float64 {
	n := g.Len()
	s.eng.Reset()
	s.flow = grow(s.flow, n)
	s.rev = grow(s.rev, n)
	for i := 0; i < n; i++ {
		c := g.Comm(graph.CommID(i))
		fid := s.eng.StartFlow(c.Src, c.Dst, c.Volume, 0)
		s.flow[i] = fid
		if fid < 0 || fid >= n {
			panic(fmt.Sprintf("predict: engine flow id %d outside dense range [0,%d)", fid, n))
		}
		s.rev[fid] = i
	}
	s.times = growF(s.times, n)
	seen := 0
	for seen < n {
		done, _ := s.eng.Advance(core.Inf)
		if len(done) == 0 {
			panic(fmt.Sprintf("predict: engine stalled with %d of %d communications pending", n-seen, n))
		}
		for _, d := range done {
			s.times[s.rev[d.Flow]] = d.Time
			seen++
		}
	}
	return s.times
}

// StaticTimes predicts durations with the static formulas only: each
// communication takes penalty * volume / refRate regardless of when the
// others finish. Result is valid until the next call on s.
func (s *Session) StaticTimes(g *graph.Graph) []float64 {
	p := s.m.Penalties(g)
	n := g.Len()
	s.times = growF(s.times, n)
	for i := 0; i < n; i++ {
		s.times[i] = p[i] * g.Comm(graph.CommID(i)).Volume / s.ref
	}
	return s.times
}

// StaticPenalties returns the model's static penalties for g (a fresh
// slice from the model, safe to retain).
func (s *Session) StaticPenalties(g *graph.Graph) []float64 {
	return s.m.Penalties(g)
}

// grow returns buf resized to n, reallocating only when capacity lacks.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growF is grow for float64 buffers.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Times predicts the duration of every communication of g with
// progressive evaluation using a one-shot Session. Result is indexed by
// graph.CommID.
func Times(g *graph.Graph, m core.Model, refRate float64) []float64 {
	return NewSession(m, refRate).Times(g)
}

// StaticTimes predicts durations with the static formulas only: each
// communication takes penalty * volume / refRate regardless of when the
// others finish. Used by the EXP-A1 ablation. No engine is built, so
// any model is accepted.
func StaticTimes(g *graph.Graph, m core.Model, refRate float64) []float64 {
	return (&Session{m: m, ref: refRate}).StaticTimes(g)
}

// Penalties runs Times and normalizes by the idle-network time of each
// communication, yielding progressive penalties.
func Penalties(g *graph.Graph, m core.Model, refRate float64) []float64 {
	times := Times(g, m, refRate)
	out := make([]float64, g.Len())
	for _, c := range g.Comms() {
		out[c.ID] = times[c.ID] / (c.Volume / refRate)
	}
	return out
}

// ModelNames lists the registry keys accepted by LookupModel, in the
// order the CLIs document them.
func ModelNames() []string {
	return []string{"gige", "myrinet", "infiniband", "kimlee", "linear"}
}

// LookupModel resolves a model name to the penalty model and its
// matching substrate engine (the substrate supplies the reference rate
// and the "measured" side of -compare). "ib" is accepted as an alias
// for "infiniband"; the baseline models run against the GigE substrate,
// like the paper's Kim & Lee comparison.
func LookupModel(name string) (core.Model, core.Engine, error) {
	var m core.Model
	sub := name
	switch name {
	case "gige":
		m = model.NewGigE()
	case "myrinet":
		m = model.NewMyrinet()
	case "infiniband", "ib":
		m = model.NewInfiniBand()
	case "kimlee":
		m, sub = model.KimLee{}, "gige"
	case "linear":
		m, sub = model.Linear{}, "gige"
	default:
		return nil, nil, fmt.Errorf("unknown model %q (want one of gige, myrinet, infiniband, kimlee, linear)", name)
	}
	e, err := LookupSubstrate(sub)
	return m, e, err
}

// LookupSubstrate builds the simulated substrate of a network name at
// its default configuration; "ib" is accepted as an alias for
// "infiniband".
func LookupSubstrate(name string) (core.Engine, error) {
	switch name {
	case "gige":
		return gige.New(gige.DefaultConfig()), nil
	case "myrinet":
		return myrinet.New(myrinet.DefaultConfig()), nil
	case "infiniband", "ib":
		return infiniband.New(infiniband.DefaultConfig()), nil
	default:
		return nil, fmt.Errorf("unknown substrate %q (want gige, myrinet or infiniband)", name)
	}
}
