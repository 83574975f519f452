package api

import (
	"math"
	"strconv"
	"sync"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// Key is the cache identity of one prediction, resolved from a request
// without building its graph: both tiers key on it, the gateway to pick
// a request's home replica and the worker to find its cached answer.
// Scheme is schemelang.Hash of the graph the request denotes, folded
// from the request's own communications; hashes collide, so a cache
// confirms a hit with Matches, which compares those communications and
// the fault schedule with the cached graph and schedule.
type Key struct {
	Scheme  uint64 // schemelang.Hash of the scheme's graph
	Model   string // CanonicalModel of the request's model
	Static  bool
	RefRate float64 // the request's rate override; 0 means the model's default
	Topo    topology.Spec
	Sched   fault.Schedule

	// The communications: g, named or comms when set, else text.
	g     *graph.Graph  // SetGraph's graph
	named *namedScheme  // a catalog scheme
	text  []graph.Comm  // the scheme text's communications (reused)
	comms []CommRequest // the structured comms form
}

// maxPooledText caps the communication list a pooled Key keeps, as
// maxPooledBody caps pooled response bodies.
const maxPooledText = 1 << 10

var keys = sync.Pool{New: func() any { return new(Key) }}

// NewKey returns a Key from the pool; Free gives it back.
func NewKey() *Key { return keys.Get().(*Key) }

// Free returns k to the pool; k must not be used afterwards.
func (k *Key) Free() {
	if cap(k.text) > maxPooledText {
		return
	}
	clear(k.text)
	k.reset()
	keys.Put(k)
}

// reset clears k for a new resolution, keeping its buffers.
func (k *Key) reset() {
	*k = Key{text: k.text[:0]}
}

// Resolve makes k the key of req, reusing k's buffers. It accepts
// exactly the requests ResolveGraph accepts, except those whose graph
// graph.Builder rejects (an empty or duplicate label, a self-loop, a
// negative node id, a non-positive volume): for those Graph fails. An
// error may differ from ResolveGraph's, which is the one to show a
// client. Scheme text is parsed once, and a catalog scheme is looked up
// in a table built on first use; no graph is built. k refers to req's
// comms until the next resolution.
func (k *Key) Resolve(req *PredictRequest) error {
	k.reset()
	k.Model, k.Static, k.RefRate = CanonicalModel(req.Model), req.Static, req.RefRate
	if err := checkForm(req); err != nil {
		return err
	}
	var topo topology.Spec
	var sched fault.Schedule
	n, maxNode := 0, graph.NodeID(-1)
	switch {
	case req.Name != "":
		m := namedSchemes()[req.Name]
		if m == nil {
			return errUnknownScheme(req.Name)
		}
		k.named, k.Scheme = m, m.hash
		n, maxNode = m.g.Len(), m.g.MaxNode()
	case req.Scheme != "":
		var err error
		if k.text, topo, sched, err = schemelang.ParseList(req.Scheme, k.text); err != nil {
			return err
		}
		k.Scheme = schemelang.HashSeed
		for _, c := range k.text {
			k.Scheme = schemelang.FoldComm(k.Scheme, c.Label, c.Src, c.Dst, c.Volume)
			maxNode = max(maxNode, c.Src, c.Dst)
		}
		n = len(k.text)
	default:
		k.comms = req.Comms
		k.Scheme = schemelang.HashSeed
		var buf [24]byte
		for i := range req.Comms {
			c := &req.Comms[i]
			src, dst := graph.NodeID(c.Src), graph.NodeID(c.Dst)
			if c.Label != "" {
				k.Scheme = schemelang.FoldComm(k.Scheme, c.Label, src, dst, commVolume(c.Volume))
			} else {
				k.Scheme = schemelang.FoldComm(k.Scheme, defaultLabel(buf[:0], i), src, dst, commVolume(c.Volume))
			}
			maxNode = max(maxNode, src, dst)
		}
		n = len(req.Comms)
	}
	topo, sched, err := resolveBlocks(req, n, maxNode, topo, sched)
	if err != nil {
		return err
	}
	k.Topo, k.Sched = topo, sched
	return nil
}

// SetGraph makes k the key of an already built graph on a fabric and
// fault schedule. Model, Static and RefRate are left zero.
func (k *Key) SetGraph(g *graph.Graph, topo topology.Spec, sched fault.Schedule) {
	k.reset()
	k.g, k.Scheme, k.Topo, k.Sched = g, schemelang.Hash(g), topo, sched
}

// Matches reports whether k is the key of a prediction of g under
// sched: whether its communications are g's, position by position, as
// graph.Equal compares them, and its fault schedule is sched. It
// allocates nothing.
func (k *Key) Matches(g *graph.Graph, sched fault.Schedule) bool {
	if !k.Sched.Equal(sched) {
		return false
	}
	switch {
	case k.g != nil:
		return graph.Equal(k.g, g)
	case k.named != nil:
		return graph.Equal(k.named.g, g)
	case k.comms != nil:
		if len(k.comms) != g.Len() {
			return false
		}
		var buf [24]byte
		for i := range k.comms {
			c, gc := &k.comms[i], g.Comm(graph.CommID(i))
			label := c.Label == gc.Label
			if c.Label == "" {
				label = string(defaultLabel(buf[:0], i)) == gc.Label
			}
			if !label || graph.NodeID(c.Src) != gc.Src || graph.NodeID(c.Dst) != gc.Dst || commVolume(c.Volume) != gc.Volume {
				return false
			}
		}
		return true
	}
	if len(k.text) != g.Len() {
		return false
	}
	for i, c := range k.text {
		gc := g.Comm(graph.CommID(i))
		if c.Label != gc.Label || c.Src != gc.Src || c.Dst != gc.Dst || c.Volume != gc.Volume {
			return false
		}
	}
	return true
}

// defaultLabel appends c<i>, the label of an unlabeled communication i
// of the comms form, to b.
func defaultLabel(b []byte, i int) []byte {
	return strconv.AppendInt(append(b, 'c'), int64(i), 10)
}

// Graph builds the graph k was resolved from: the one SetGraph was
// given, the shared catalog graph, or a fresh graph of the scheme
// text's or the structured comms. It fails where graph.Builder rejects
// the communications.
func (k *Key) Graph() (*graph.Graph, error) {
	switch {
	case k.g != nil:
		return k.g, nil
	case k.named != nil:
		return k.named.g, nil
	case k.comms != nil:
		return buildComms(k.comms)
	}
	b := graph.NewBuilder()
	for _, c := range k.text {
		b.Add(c.Label, c.Src, c.Dst, c.Volume)
	}
	return b.Build()
}

// ShardKey folds a resolved request's key into the gateway's shard key:
// the scheme hash, canonical model, static flag, rate override, fabric
// and fault-schedule hash, the components of the worker's cache key. The
// rate is the request's own: the gateway does not know the models'
// default rates, so an explicit default shards apart from an omitted
// one.
func (k *Key) ShardKey() uint64 {
	h := foldU64(fnvOffset, k.Scheme)
	h = foldString(h, k.Model)
	h = foldByte(h, 0)
	if k.Static {
		h = foldByte(h, 1)
	} else {
		h = foldByte(h, 0)
	}
	h = foldU64(h, math.Float64bits(k.RefRate))
	h = foldString(h, k.Topo.String())
	h = foldByte(h, 0)
	return foldU64(h, k.Sched.Hash())
}

// namedScheme is a catalog scheme's graph with its hash, computed once.
type namedScheme struct {
	g    *graph.Graph
	hash uint64
}

var namedSchemes = sync.OnceValue(func() map[string]*namedScheme {
	out := make(map[string]*namedScheme)
	for _, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		out[name] = &namedScheme{g: g, hash: schemelang.Hash(g)}
	}
	return out
})

// FNV-1a, byte by byte as hash/fnv's New64a writes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = foldByte(h, s[i])
	}
	return h
}

func foldU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = foldByte(h, byte(v>>(8*i)))
	}
	return h
}
