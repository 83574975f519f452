package netsim

import "testing"

// Tests for the bounded scratch retention fix: a long-lived allocator
// must shed scratch whose capacity was inflated by one huge transient
// scheme instead of pinning it for the life of the process.

// inflateScratch grows the scratch the way a big allocation epoch
// would: many flows and many slots in the link table.
func inflateScratch(sc *fillScratch, flows int, slots int) {
	sc.begin()
	sc.d.links = append(sc.d.links, make(links, slots)...)
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
	byLinks := new(fillScratch)
	inflateScratch(byLinks, 64, maxPooledScratchLen+1)
	if !byLinks.oversized() {
		t.Fatal("scratch with a huge link table not reported oversized")
	}
}
