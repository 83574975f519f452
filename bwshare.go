// Package bwshare predicts how concurrent MPI communications share
// bandwidth on high-performance clusters. It is a complete, from-scratch
// reproduction of Vienne, Martinasso, Vincent and Mehaut, "Predictive
// models for bandwidth sharing in high performance clusters" (IEEE
// Cluster 2008), including the paper's penalty models, its trace-driven
// simulator, the calibration procedure, and simulated substrates that
// stand in for the paper's Gigabit Ethernet, Myrinet 2000 and InfiniBand
// clusters.
//
// # Concepts
//
// A communication scheme is a directed multigraph of point-to-point
// transfers between cluster nodes (Scheme). When several transfers
// overlap, each one is slowed by a penalty P = T/Tref where Tref is its
// idle-network time. Penalty models predict P from the scheme alone:
//
//   - GigEModel: the paper's quantitative Gigabit Ethernet model with
//     parameters (beta, gamma_o, gamma_i).
//   - MyrinetModel: the paper's descriptive state-set model for
//     Myrinet's Stop & Go flow control.
//   - InfiniBandModel: the same formula family calibrated for
//     Infinihost III (the paper announces this model as future work).
//   - KimLeeModel, LinearModel: prior-work baselines.
//
// Engines transfer flows on a simulated clock: the three substrate
// engines (NewGigE, NewMyrinet, NewInfiniBand) play the role of the
// paper's physical clusters and produce "measured" times, while
// NewPredictor wraps any model into an engine that produces "predicted"
// times with the paper's progressive penalty re-evaluation.
//
// # Quick start
//
//	s, _ := bwshare.ParseScheme("a: 0 -> 1\nb: 0 -> 2")
//	pen := bwshare.MyrinetModel().Penalties(s)      // static penalties
//	res := bwshare.Measure(bwshare.NewMyrinet(), s) // substrate run
//
// See the examples directory for complete programs, and README.md for
// the build instructions, the experiment CLI and the experiment index.
package bwshare

import (
	"io"

	"bwshare/internal/apps"
	"bwshare/internal/calibrate"
	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/hpl"
	"bwshare/internal/measure"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/replay"
	"bwshare/internal/sched"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/stats"
	"bwshare/internal/topology"
	"bwshare/internal/trace"
)

// Core re-exported types. The internal packages carry the full
// documentation; these aliases form the stable public surface.
type (
	// Scheme is a communication scheme graph.
	Scheme = graph.Graph
	// SchemeBuilder incrementally constructs a Scheme.
	SchemeBuilder = graph.Builder
	// NodeID identifies a cluster node.
	NodeID = graph.NodeID
	// CommID identifies a communication within a scheme.
	CommID = graph.CommID
	// Comm is one point-to-point communication.
	Comm = graph.Comm
	// Model predicts per-communication penalties. A penalty may depend
	// only on the comm's same-source/same-destination component, never
	// on volumes: the predictor re-scores just the components an event
	// touched.
	Model = core.Model
	// Engine is a network simulator (substrate or model-driven).
	Engine = core.Engine
	// Cluster describes an SMP cluster.
	Cluster = cluster.Cluster
	// Placement maps MPI ranks to cluster nodes.
	Placement = cluster.Placement
	// Trace is a multi-task application event trace.
	Trace = trace.Trace
	// TraceEvent is one step of a task program.
	TraceEvent = trace.Event
	// MeasureResult holds per-communication times and penalties.
	MeasureResult = measure.Result
	// ReplayResult holds per-task results of a trace replay.
	ReplayResult = replay.Result
	// HPLConfig parameterizes the Linpack trace generator.
	HPLConfig = hpl.Config
	// DegreeModel is the parametric (beta, gamma) penalty model family.
	DegreeModel = model.DegreeModel
	// RandomSchemeConfig bounds the seeded random scheme generator.
	RandomSchemeConfig = randgen.SchemeConfig
	// RandomTraceConfig bounds the seeded random trace generator.
	RandomTraceConfig = randgen.TraceConfig
	// Topology describes a multi-switch fabric (single crossbar,
	// star-of-switches or two-level fat-tree; see internal/topology).
	// The zero value is the paper's single crossbar.
	Topology = topology.Spec
	// FaultSchedule is a deterministic timetable of fabric faults —
	// uplink outages, fractional link degradations and per-host NIC
	// slowdowns (see internal/fault). The zero value is a healthy
	// fabric.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault with its injection and repair
	// times.
	FaultEvent = fault.Event
)

// AnySource is the wildcard receive peer (MPI_ANY_SOURCE).
const AnySource = trace.AnySource

// NewScheme returns an empty scheme builder.
func NewScheme() *SchemeBuilder { return graph.NewBuilder() }

// ParseScheme parses the textual scheme description language (see
// internal/schemelang for the syntax).
func ParseScheme(src string) (*Scheme, error) { return schemelang.Parse(src) }

// FormatScheme renders a scheme in the description language.
func FormatScheme(g *Scheme) string { return schemelang.Format(g) }

// ParseTopology parses a fabric description such as "crossbar",
// "star 4x8" or "fattree 4x8 oversub 2 place roundrobin".
func ParseTopology(src string) (Topology, error) { return topology.ParseSpec(src) }

// ParseSchemeWithTopology parses a scheme together with its optional
// 'topology:' and 'place:' headers. It rejects 'fault:' headers; use
// ParseSchemeFull for schemes that degrade their fabric.
func ParseSchemeWithTopology(src string) (*Scheme, Topology, error) {
	return schemelang.ParseWithTopology(src)
}

// ParseSchemeFull parses a scheme together with all of its optional
// headers: 'topology:', 'place:' and 'fault:'. The returned schedule
// is empty when the scheme declares no faults.
func ParseSchemeFull(src string) (*Scheme, Topology, FaultSchedule, error) {
	return schemelang.ParseFull(src)
}

// ParseFaultEvent parses one fault description such as
// "link 0 down at 2 until 5" or "host 3 slow 0.5 at 1".
func ParseFaultEvent(src string) (FaultEvent, error) {
	return fault.ParseEvent(src)
}

// NamedScheme returns a scheme from the paper's registry
// (s1..s6, fig4, fig5, mk1, mk2).
func NamedScheme(name string) (*Scheme, bool) { return schemes.Named(name) }

// SchemeNames lists the registry keys.
func SchemeNames() []string { return schemes.Names() }

// GigEModel returns the paper's calibrated Gigabit Ethernet model
// (beta = 0.75, gamma_o = 0.115, gamma_i = 0.036).
func GigEModel() Model { return model.NewGigE() }

// MyrinetModel returns the paper's descriptive Myrinet state-set model.
func MyrinetModel() Model { return model.NewMyrinet() }

// InfiniBandModel returns the Infinihost III degree model (the paper's
// announced future work, calibrated from its Figure 2).
func InfiniBandModel() Model { return model.NewInfiniBand() }

// KimLeeModel returns the Kim & Lee (2001) baseline.
func KimLeeModel() Model { return model.KimLee{} }

// LinearModel returns the contention-blind LogGP-style baseline.
func LinearModel() Model { return model.Linear{} }

// NewGigE builds the Gigabit Ethernet substrate engine with the
// calibrated default configuration.
func NewGigE() Engine { return gige.New(gige.DefaultConfig()) }

// NewGigEOn builds the GigE substrate on a multi-switch fabric: flows
// crossing edge switches share the fabric's uplink capacities. The
// zero Topology reproduces NewGigE exactly.
func NewGigEOn(topo Topology) Engine {
	cfg := gige.DefaultConfig()
	cfg.Topo = topo
	return gige.New(cfg)
}

// NewMyrinet builds the Myrinet 2000 packet-level substrate engine.
func NewMyrinet() Engine { return myrinet.New(myrinet.DefaultConfig()) }

// NewInfiniBand builds the InfiniBand substrate engine.
func NewInfiniBand() Engine { return infiniband.New(infiniband.DefaultConfig()) }

// NewInfiniBandOn builds the InfiniBand substrate on a multi-switch
// fabric. The zero Topology reproduces NewInfiniBand exactly.
func NewInfiniBandOn(topo Topology) Engine {
	cfg := infiniband.DefaultConfig()
	cfg.Topo = topo
	return infiniband.New(cfg)
}

// NewPredictor wraps a penalty model as an engine that applies the
// paper's progressive penalty re-evaluation. refRate is the idle-network
// single-flow rate in bytes/second.
func NewPredictor(m Model, refRate float64) Engine { return NewPredictorOn(m, refRate, Topology{}) }

// NewPredictorOn is NewPredictor on a multi-switch fabric: model-given
// rates are additionally capped by the fabric's shared uplinks.
func NewPredictorOn(m Model, refRate float64, topo Topology) Engine {
	e, _ := predict.NewEngine(predict.Spec{Model: m, Ref: refRate, Topo: topo}) // healthy: cannot fail
	return e
}

// NewPredictorFaulted is NewPredictorOn on a dynamic fabric: the
// schedule's faults are injected and repaired on the engine's clock.
// It rejects invalid schedules and permanent total outages (which
// would leave flows that never finish).
func NewPredictorFaulted(m Model, refRate float64, topo Topology, sched FaultSchedule) (Engine, error) {
	return predict.NewEngine(predict.Spec{Model: m, Ref: refRate, Topo: topo, Faults: sched})
}

// Measure runs a scheme on an engine with all communications starting
// simultaneously (the paper's benchmark protocol) and reports times and
// penalties.
func Measure(e Engine, g *Scheme) MeasureResult { return measure.Run(e, g) }

// PredictTimes predicts each communication's duration with progressive
// evaluation, all starting at time zero.
func PredictTimes(g *Scheme, m Model, refRate float64) []float64 {
	return predict.Times(g, m, refRate)
}

// PredictPenalties is PredictTimes normalized by idle-network times.
func PredictPenalties(g *Scheme, m Model, refRate float64) []float64 {
	return predict.Penalties(g, m, refRate)
}

// Calibrate runs the paper's Section V-A parameter estimation against an
// engine and returns a fitted degree model.
func Calibrate(name string, e Engine, kmax int, volume float64) (DegreeModel, error) {
	return calibrate.Fit(name, e, kmax, volume)
}

// DefaultCluster returns a paper-like cluster: dual-core SMP nodes.
func DefaultCluster(nodes int) Cluster { return cluster.Default(nodes) }

// Place assigns tasks to nodes with the named strategy: "rrn", "rrp" or
// "random" (Section VI-D).
func Place(strategy string, c Cluster, tasks int, seed int64) (Placement, error) {
	return sched.Place(strategy, c, tasks, seed)
}

// PlacementStrategies lists the supported strategy names.
func PlacementStrategies() []string { return sched.Strategies() }

// Replay co-simulates an application trace over an engine (rendezvous
// sends, tag matching, ANY_SOURCE, barriers, intra-node copies).
func Replay(e Engine, c Cluster, p Placement, tr *Trace) (*ReplayResult, error) {
	return replay.Run(e, c, p, tr)
}

// HPLTrace generates a Linpack trace with the paper's ring communication
// scheme. DefaultHPLConfig gives the paper's N=20500 configuration.
func HPLTrace(cfg HPLConfig) (*Trace, error) { return hpl.Generate(cfg) }

// DefaultHPLConfig returns the paper's HPL configuration for p tasks.
func DefaultHPLConfig(p int) HPLConfig { return hpl.Default(p) }

// HaloTrace generates a 2D toroidal stencil (halo exchange) trace on a
// px x py task grid (dimensions even or 1).
func HaloTrace(px, py, iters int, haloBytes, computeSec float64) (*Trace, error) {
	return apps.Halo2D(px, py, iters, haloBytes, computeSec)
}

// AllToAllTrace generates pairwise-exchange all-to-all rounds among p
// tasks (p must be a power of two).
func AllToAllTrace(p, iters int, bytes, computeSec float64) (*Trace, error) {
	return apps.AllToAll(p, iters, bytes, computeSec)
}

// BroadcastTrace generates binomial-tree broadcasts from rank 0.
func BroadcastTrace(p, iters int, bytes, computeSec float64) (*Trace, error) {
	return apps.Broadcast(p, iters, bytes, computeSec)
}

// ComposeTraces co-locates several barrier-free application traces on
// one cluster (ranks are concatenated; they interact only through the
// shared network).
func ComposeTraces(ts ...*Trace) (*Trace, error) { return apps.Compose(ts...) }

// DefaultRandomSchemeConfig returns generator bounds spanning the
// paper's figure schemes (see randgen.DefaultSchemeConfig).
func DefaultRandomSchemeConfig() RandomSchemeConfig { return randgen.DefaultSchemeConfig() }

// RandomScheme deterministically generates a random communication
// scheme from a seed: bounded node count, fan-in/fan-out degrees and
// volumes per cfg. Identical (seed, cfg) always yield the identical
// scheme.
func RandomScheme(seed int64, cfg RandomSchemeConfig) (*Scheme, error) {
	return randgen.SchemeFromSeed(seed, cfg)
}

// RandomSchemes generates n random schemes from one seeded stream;
// scheme i is stable as n grows.
func RandomSchemes(seed int64, n int, cfg RandomSchemeConfig) ([]*Scheme, error) {
	return randgen.Schemes(seed, n, cfg)
}

// DefaultRandomTraceConfig returns trace generator bounds the size of
// the paper's HPL runs (see randgen.DefaultTraceConfig).
func DefaultRandomTraceConfig() RandomTraceConfig { return randgen.DefaultTraceConfig() }

// RandomTrace deterministically generates a barrier-free,
// rendezvous-safe random application trace from a seed. The result
// replays without deadlock and composes with ComposeTraces.
func RandomTrace(seed int64, cfg RandomTraceConfig) (*Trace, error) {
	return randgen.TraceFromSeed(seed, cfg)
}

// RandomWorkload generates napps random applications and composes them
// into one co-scheduled trace sharing the network.
func RandomWorkload(seed int64, napps int, cfg RandomTraceConfig) (*Trace, error) {
	return randgen.WorkloadFromSeed(seed, napps, cfg)
}

// WriteTrace and ReadTrace serialize traces as JSON Lines.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// ReadTrace parses a serialized trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// RelativeError returns Erel(predicted, measured) in percent
// (Section VI-B); negative is optimistic, positive pessimistic.
func RelativeError(predicted, measured float64) float64 {
	return stats.RelErr(predicted, measured)
}

// AbsoluteError returns Eabs: the mean absolute relative error in
// percent over a graph's communications.
func AbsoluteError(predicted, measured []float64) float64 {
	return stats.AbsErr(predicted, measured)
}
