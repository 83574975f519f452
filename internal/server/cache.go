package server

import (
	"sync"

	"bwshare/internal/api"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// cacheKey identifies one cached prediction: scheme hash x model x
// static/progressive x reference rate x fabric x fault-schedule hash.
// The scheme hash is api.Key's, which every request form (catalog name,
// scheme text, comms) and Server.Predict's graph derive alike for one
// graph, so they share one entry. The hashes can collide, so a hit is
// confirmed against the stored graph and schedule (api.Key.Matches)
// before being served — a degraded prediction must never alias a
// healthy one. The empty schedule hashes to 0, so healthy entries keep
// their historical keys. The other fields are exact values.
type cacheKey struct {
	hash   uint64
	model  string
	static bool
	ref    float64
	topo   topology.Spec
	faults uint64
}

// entry is one LRU cache slot. The stored slices and graph are
// immutable once inserted: readers hand them out without copying, and a
// hit is answered from the entry's own graph.
type entry struct {
	key        cacheKey
	g          *graph.Graph
	sched      fault.Schedule
	pen, times []float64

	prev, next *entry // intrusive LRU list, most recent at head
}

// lru is a mutex-guarded fixed-capacity LRU map. The hit path performs
// no allocation: a map lookup, an api.Key.Matches confirmation and an
// intrusive list splice.
type lru struct {
	mu         sync.Mutex
	cap        int
	byKey      map[cacheKey]*entry
	head, tail *entry
}

// newLRU returns a cache holding up to capacity entries; capacity <= 0
// disables caching (every get misses, every put is dropped).
func newLRU(capacity int) *lru {
	return &lru{cap: capacity, byKey: make(map[cacheKey]*entry)}
}

// get returns the entry for key after confirming that k matches its
// graph and fault schedule, promoting it to most recently used.
func (c *lru) get(key cacheKey, k *api.Key) *entry {
	if c.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[key]
	if e == nil || !k.Matches(e.g, e.sched) {
		return nil
	}
	c.moveToFront(e)
	return e
}

// put inserts an entry, evicting the least recently used slot when full.
// A concurrent insert of the same key for the same graph is overwritten
// (last writer wins; both computed identical values for identical
// inputs). A *different* graph under an equal key is a genuine hash
// collision: the resident entry is kept deterministically — confirmed
// with graph.Equal — so two colliding schemes cannot permanently evict
// each other on alternating requests (the newcomer simply stays
// uncached and recomputes).
func (c *lru) put(e *entry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.byKey[e.key]; old != nil {
		if !graph.Equal(old.g, e.g) || !old.sched.Equal(e.sched) {
			return // collision: first resident wins
		}
		c.unlink(old)
		delete(c.byKey, old.key)
	}
	for len(c.byKey) >= c.cap {
		lruEntry := c.tail
		c.unlink(lruEntry)
		delete(c.byKey, lruEntry.key)
	}
	c.byKey[e.key] = e
	c.pushFront(e)
}

// len returns the current entry count.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

func (c *lru) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lru) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
