package netsim

import "testing"

// Tests for the bounded scratch retention fix: a long-lived allocator
// must shed scratch whose capacity was inflated by one huge transient
// scheme instead of pinning it for the life of the process.

// inflateScratch grows the scratch the way a big allocation epoch
// would: many flows and a large switch id in the link slot tables.
func inflateScratch(sc *fillScratch, flows int, maxSwitch int) {
	sc.begin()
	sc.up.intern(maxSwitch, 0)
	sc.dn.intern(maxSwitch, 0)
	for i := 0; i < flows; i++ {
		sc.d.flows = append(sc.d.flows, fillFlow{})
	}
}

func TestFillScratchOversized(t *testing.T) {
	small := new(fillScratch)
	inflateScratch(small, 64, 128)
	if small.oversized() {
		t.Fatal("small scratch reported oversized")
	}
	byFlows := new(fillScratch)
	inflateScratch(byFlows, maxPooledScratchLen+1, 128)
	if !byFlows.oversized() {
		t.Fatal("scratch with huge per-flow arrays not reported oversized")
	}
	byNode := new(fillScratch)
	inflateScratch(byNode, 64, maxPooledScratchLen+1)
	if !byNode.oversized() {
		t.Fatal("scratch with huge interner tables not reported oversized")
	}
}
