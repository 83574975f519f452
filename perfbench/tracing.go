package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bwshare/internal/core"
	"bwshare/internal/graph"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is -1 for a root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so the untraced pass of the same inputs runs
// the same code with every hook a no-op.
//
// Parents are found through the set of open spans: the traced passes
// issue one request at a time, so every span opened while a request is
// in flight belongs to it (the gateway sends a batch's sub-batches one
// after another, so even those do not overlap).
type tracer struct {
	t0    time.Time
	req   atomic.Int64 // id of the request in flight
	mu    sync.Mutex
	spans []span
	open  []int // indices of open spans, in opening order
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRequest marks the start of request id.
func (t *tracer) setRequest(id int64) {
	if t != nil {
		t.req.Store(id)
	}
}

// begin opens a span. Its parent is the latest open span named
// parentName, or the latest open span of any name when parentName is "".
func (t *tracer) begin(name, parentName string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	for i := len(t.open) - 1; i >= 0; i-- {
		if parentName == "" || t.spans[t.open[i]].Name == parentName {
			parent = t.open[i]
			break
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: t.req.Load()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id; rename, when not empty, renames it (a cache
// lookup is a hit or a miss only once it has answered).
func (t *tracer) end(id int, rename string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if rename != "" {
		t.spans[id].Name = rename
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.open = nil, nil
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []int {
	if t == nil {
		return nil
	}
	var out []int
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// durationsUS returns the durations of the spans called name in µs.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, i := range t.named(name) {
		out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1e3)
	}
	return out
}

// children returns, for every span, the intervals of its children.
func (t *tracer) children() [][]interval {
	out := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], interval{s.Start, s.End})
		}
	}
	return out
}

// selfUS returns the self time in µs of every span called name: its
// duration minus the union of its children's intervals.
func (t *tracer) selfUS(name string) []float64 {
	kids := t.children()
	var out []float64
	for _, i := range t.named(name) {
		s := t.spans[i]
		out = append(out, float64(selfTime(interval{s.Start, s.End}, kids[i]))/1e3)
	}
	return out
}

// write saves the spans as JSON Lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler wraps an http.Handler in a span named name, parented to
// the latest open span named parentName.
func traceHandler(t *tracer, name, parentName string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(name, parentName)
		defer t.end(id, "")
		h.ServeHTTP(w, r)
	})
}

// tracedModel decorates a penalty model with a span per Penalties call
// and counts the active-graph sizes it is asked about.
type tracedModel struct {
	core.Model
	t     *tracer
	name  string
	calls int
	comms int
}

func (m *tracedModel) Penalties(g *graph.Graph) []float64 {
	id := m.t.begin(m.name, "")
	p := m.Model.Penalties(g)
	m.t.end(id, "")
	m.calls++
	m.comms += g.Len()
	return p
}

// tracedEngine decorates an engine with spans around StartFlow and
// Advance. It forwards core.Resetter, so callers that reset engines
// (replay.Run, measure.Run) take their normal path.
type tracedEngine struct {
	core.Engine
	t           *tracer
	prefix      string // span names are prefix+".start_flow" and prefix+".advance"
	advances    int
	completions int
}

func (e *tracedEngine) StartFlow(src, dst graph.NodeID, bytes float64, now float64) int {
	id := e.t.begin(e.prefix+".start_flow", "")
	fid := e.Engine.StartFlow(src, dst, bytes, now)
	e.t.end(id, "")
	return fid
}

func (e *tracedEngine) Advance(limit float64) ([]core.Completion, float64) {
	id := e.t.begin(e.prefix+".advance", "")
	done, now := e.Engine.Advance(limit)
	e.t.end(id, "")
	e.advances++
	e.completions += len(done)
	return done, now
}

// Reset forwards to the decorated engine when it can be reset.
func (e *tracedEngine) Reset() {
	if r, isResetter := e.Engine.(core.Resetter); isResetter {
		r.Reset()
	}
}
