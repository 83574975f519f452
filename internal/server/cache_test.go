// Focused lru tests: the disabled-cache (capacity <= 0) paths and the
// eviction order under interleaved promotions, which TestLRUEviction's
// single put-after-get does not pin down.
package server

import (
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// keyOf is the key of a prediction of g on the healthy crossbar.
func keyOf(g *graph.Graph) *api.Key {
	var k api.Key
	k.SetGraph(g, topology.Spec{}, fault.Schedule{})
	return &k
}

// mkEntry builds a distinct graph + key pair; the key hash is synthetic
// so tests control collisions explicitly.
func mkEntry(label string, hash uint64) (*graph.Graph, cacheKey) {
	g := graph.NewBuilder().Add(label, 0, 1, 1e6).MustBuild()
	return g, cacheKey{hash: hash, model: "m"}
}

// TestNegativeCapacityCache: capacity <= 0 means "no cache", and both
// paths must short-circuit before touching the map or the list — a put
// on a full disabled cache would otherwise loop forever evicting from
// an empty tail.
func TestNegativeCapacityCache(t *testing.T) {
	for _, capacity := range []int{0, -1, -1000} {
		c := newLRU(capacity)
		g, k := mkEntry("a", 1)
		if e := c.get(k, keyOf(g)); e != nil {
			t.Errorf("cap %d: get on empty disabled cache returned %v", capacity, e)
		}
		c.put(&entry{key: k, g: g})
		if n := c.len(); n != 0 {
			t.Errorf("cap %d: put should be dropped, len = %d", capacity, n)
		}
		if e := c.get(k, keyOf(g)); e != nil {
			t.Errorf("cap %d: disabled cache served a hit", capacity)
		}
	}
	// The stats document reports a disabled cache as capacity 0, not a
	// negative configuration artifact.
	s := New(Config{Workers: 1, CacheSize: -1})
	if st := s.Snapshot(); st.CacheCapacity != 0 || st.CacheEntries != 0 {
		t.Errorf("stats for disabled cache: %+v", st)
	}
}

// TestLRUEvictionOrderAfterPromotions: eviction must track the true
// recency order through a sequence of interleaved get-promotions, not
// insertion order. With capacity 3 and entries a,b,c resident, touching
// a then c leaves b at the tail; inserting d must evict exactly b, and
// a follow-up insert must evict a (the next tail), never the freshly
// promoted c.
func TestLRUEvictionOrderAfterPromotions(t *testing.T) {
	c := newLRU(3)
	ga, ka := mkEntry("a", 1)
	gb, kb := mkEntry("b", 2)
	gc, kc := mkEntry("c", 3)
	gd, kd := mkEntry("d", 4)
	ge, ke := mkEntry("e", 5)
	c.put(&entry{key: ka, g: ga})
	c.put(&entry{key: kb, g: gb})
	c.put(&entry{key: kc, g: gc})

	// Promote a (tail -> head), then c; recency is now c, a, b.
	if c.get(ka, keyOf(ga)) == nil || c.get(kc, keyOf(gc)) == nil {
		t.Fatal("a and c should be resident")
	}
	c.put(&entry{key: kd, g: gd}) // must evict b
	if c.get(kb, keyOf(gb)) != nil {
		t.Error("b should have been evicted (true LRU)")
	}
	if c.get(ka, keyOf(ga)) == nil || c.get(kc, keyOf(gc)) == nil {
		t.Error("a and c were promoted and must survive")
	}
	// The residency checks above promoted a and c past d, so d is now
	// the tail despite being the most recent insert.
	c.put(&entry{key: ke, g: ge}) // must evict d
	if c.get(kd, keyOf(gd)) != nil {
		t.Error("d should have been evicted after a and c were re-promoted")
	}
	if c.get(ka, keyOf(ga)) == nil || c.get(kc, keyOf(gc)) == nil || c.get(ke, keyOf(ge)) == nil {
		t.Error("a, c, e should be resident")
	}
	if c.len() != 3 {
		t.Errorf("len = %d, want 3", c.len())
	}

	// Re-putting a resident key refreshes its slot in place: a is moved
	// to the head, so the next eviction takes c (current tail), not a.
	c.put(&entry{key: ka, g: ga})
	c.put(&entry{key: kd, g: gd}) // evicts c
	if c.get(kc, keyOf(gc)) != nil {
		t.Error("c should have been evicted after a's re-put promotion")
	}
	if c.get(ka, keyOf(ga)) == nil {
		t.Error("re-put a must stay resident")
	}
}
