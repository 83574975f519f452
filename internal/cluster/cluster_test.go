package cluster

import (
	"math"
	"testing"

	"bwshare/internal/graph"
)

func TestDefault(t *testing.T) {
	c := Default(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Slots() != 16 {
		t.Fatalf("Slots = %d, want 16", c.Slots())
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Cluster{
		{Nodes: 0, CoresPerNode: 2, MemRate: 1},
		{Nodes: 2, CoresPerNode: 0, MemRate: 1},
		{Nodes: 2, CoresPerNode: 2, MemRate: 0},
		{Nodes: 2, CoresPerNode: 2, MemRate: 1, MemLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestLocalCopyTime(t *testing.T) {
	c := Cluster{Nodes: 1, CoresPerNode: 2, MemRate: 1e9, MemLatency: 1e-6}
	got := c.LocalCopyTime(1e9)
	if math.Abs(got-(1+1e-6)) > 1e-12 {
		t.Fatalf("LocalCopyTime = %g, want 1.000001", got)
	}
}

func TestPlacementValidate(t *testing.T) {
	c := Default(2) // 2 nodes x 2 cores
	ok := Placement{0, 0, 1, 1}
	if err := ok.Validate(c); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if err := (Placement{0, 0, 0}).Validate(c); err == nil {
		t.Error("overfull node accepted")
	}
	if err := (Placement{0, 5}).Validate(c); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := (Placement{graph.NodeID(-1)}).Validate(c); err == nil {
		t.Error("negative node accepted")
	}
	// With several nodes overfull the error names the lowest, every
	// time: it must not depend on map iteration order.
	many := Placement{3, 3, 3, 1, 1, 1, 2, 2, 2}
	for i := 0; i < 20; i++ {
		err := many.Validate(Default(4))
		if err == nil || err.Error() != "cluster: node 1 hosts 3 tasks, capacity 2" {
			t.Fatalf("overfull placement: got %v, want node 1 named", err)
		}
	}
}

func TestSameNode(t *testing.T) {
	p := Placement{0, 1, 0}
	if !p.SameNode(0, 2) || p.SameNode(0, 1) {
		t.Fatal("SameNode wrong")
	}
}
