// Package core defines the shared contracts of the bwshare library: the
// penalty Model interface implemented by the paper's predictive models and
// the network Engine interface implemented by the "measured" substrates
// and by the model-driven predictor.
//
// Everything in the paper reduces to these two abstractions:
//
//   - A Model maps a communication scheme graph to one penalty per
//     communication. Penalty p means "this transfer takes p times longer
//     than it would on an idle network" (Section IV-B).
//   - An Engine transfers flows between cluster nodes on a simulated
//     clock. The three interconnect substrates (GigE, Myrinet, InfiniBand)
//     are Engines, and so is the paper's model-driven simulator; measured
//     and predicted times come from running the same driver over different
//     Engines.
package core

import (
	"math"

	"bwshare/internal/graph"
)

// ValidRefRate reports whether a reference-rate override is acceptable
// at a trust boundary: zero (use the substrate default) or a positive
// finite rate in bytes/second. Negative, NaN and ±Inf values all
// survive JSON/flag parsing and would otherwise propagate garbage into
// every penalty, so the HTTP service and the CLIs reject them up front
// with this shared check.
func ValidRefRate(ref float64) bool {
	return ref == 0 || (ref > 0 && !math.IsInf(ref, 0) && !math.IsNaN(ref))
}

// Model is a predictive bandwidth-sharing penalty model (Section V).
//
// A model is component-local: the penalty of a communication may depend
// only on its same-source/same-destination component — the
// communications reachable from it through a shared sender or a shared
// receiver — and not on any volume. Scoring a union of whole components
// as one graph must give each of them the penalty it gets in the full
// graph, bit for bit. Nor may a penalty depend on the order of g's
// communications: permuting them permutes the penalties, bit for bit.
// The progressive predictor relies on both: at each event it re-scores
// only the components the event touched, in whatever order it finds
// them, and keeps the other rates.
type Model interface {
	// Name identifies the model, e.g. "gige", "myrinet".
	Name() string
	// Penalties returns one penalty per communication of g, indexed by
	// graph.CommID. Every penalty is >= 1. Implementations must not
	// retain or mutate g.
	Penalties(g *graph.Graph) []float64
}

// Completion reports that a flow finished at a simulated time.
type Completion struct {
	Flow int     // id returned by StartFlow
	Time float64 // seconds on the engine clock
}

// Engine is an incremental network simulator. Time is a float64 number of
// seconds starting at 0. Flows may be added at the current frontier; the
// replay driver interleaves engine progress with task-level events.
//
// The contract:
//
//   - StartFlow(src, dst, bytes, now) registers a flow beginning at time
//     now, which must be >= the engine's current frontier (the time last
//     returned by Advance, 0 initially). It returns a flow id unique for
//     the engine's lifetime.
//   - Advance(limit) runs the engine forward until either limit is
//     reached or at least one flow completes, whichever is earlier. It
//     returns the flows that completed at the reached instant (all with
//     the same Time) and the new frontier. An engine with no active flows
//     jumps straight to limit. The returned slice may be scratch owned by
//     the engine, valid only until the next StartFlow or Advance call;
//     callers retain completions by copying the values (append of the
//     elements is enough), never the slice itself.
//
// This "advance until the next completion" contract is what lets a driver
// co-simulate tasks and network without lookahead or rollback: the driver
// always knows its next task event time and never lets the engine run past
// a moment at which new flows could be injected.
//
// Every Engine is single-driver: StartFlow, Advance and Reset must be
// issued from one goroutine (or be externally serialized).
type Engine interface {
	// Name identifies the engine, e.g. "gige".
	Name() string
	// StartFlow registers a transfer of volume bytes from node src to
	// node dst starting at time now, and returns its flow id.
	StartFlow(src, dst graph.NodeID, bytes float64, now float64) int
	// Advance runs until limit or the first completion instant.
	Advance(limit float64) (done []Completion, now float64)
	// RefRate returns the reference point-to-point rate in bytes/second:
	// the steady rate of a single flow on an otherwise idle network.
	// Tref for a volume V is approximately V/RefRate (the paper's 20 MB
	// messages make fixed per-message overheads negligible).
	RefRate() float64
}

// Resetter is implemented by engines that can be returned to an empty
// state at time zero, allowing reuse across experiment repetitions.
type Resetter interface {
	Reset()
}

// Drain advances e repeatedly with no time limit and returns every
// completion, sorted by the order the engine reported them. It is the
// standard way to finish a scheme in which all flows are already started.
func Drain(e Engine) []Completion {
	var all []Completion
	for {
		done, _ := e.Advance(Inf)
		if len(done) == 0 {
			return all
		}
		all = append(all, done...)
	}
}

// Inf is the positive infinity time limit used to run engines dry.
const Inf = 1e300
