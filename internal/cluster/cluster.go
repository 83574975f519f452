// Package cluster describes the machine a workload runs on: how many SMP
// nodes, how many cores (MPI task slots) per node, and the intra-node
// memory copy performance used for communications between two tasks
// placed on the same node (Section VI-A: "the definition of the cluster
// including for each node the number of core, the number of node etc").
package cluster

import (
	"fmt"

	"bwshare/internal/graph"
)

// Cluster is a homogeneous SMP cluster description.
type Cluster struct {
	// Nodes is the number of SMP nodes.
	Nodes int
	// CoresPerNode is the number of MPI task slots per node (the
	// paper's machines have 2 processors per node).
	CoresPerNode int
	// MemRate is the intra-node copy bandwidth in bytes/second used for
	// same-node communications.
	MemRate float64
	// MemLatency is the fixed intra-node message latency in seconds.
	MemLatency float64
}

// Default returns a cluster like the paper's GigE/Myrinet machines:
// dual-processor nodes, shared-memory copies at 1.2 GB/s.
func Default(nodes int) Cluster {
	return Cluster{Nodes: nodes, CoresPerNode: 2, MemRate: 1.2e9, MemLatency: 2e-6}
}

// Validate reports configuration errors.
func (c Cluster) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes = %d, need > 0", c.Nodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: CoresPerNode = %d, need > 0", c.CoresPerNode)
	}
	if c.MemRate <= 0 {
		return fmt.Errorf("cluster: MemRate = %g, need > 0", c.MemRate)
	}
	if c.MemLatency < 0 {
		return fmt.Errorf("cluster: MemLatency = %g, need >= 0", c.MemLatency)
	}
	return nil
}

// Slots returns the total number of task slots.
func (c Cluster) Slots() int { return c.Nodes * c.CoresPerNode }

// LocalCopyTime returns the duration of an intra-node transfer.
func (c Cluster) LocalCopyTime(bytes float64) float64 {
	return c.MemLatency + bytes/c.MemRate
}

// Placement maps each MPI task rank to the cluster node hosting it.
type Placement []graph.NodeID

// Validate checks the placement against the cluster's capacity.
func (p Placement) Validate(c Cluster) error {
	perNode := make(map[graph.NodeID]int)
	for rank, n := range p {
		if int(n) < 0 || int(n) >= c.Nodes {
			return fmt.Errorf("cluster: task %d placed on node %d, cluster has %d nodes", rank, n, c.Nodes)
		}
		perNode[n]++
	}
	// Report the lowest overfull node, so the error does not depend on
	// map iteration order.
	over := graph.NodeID(-1)
	for n, k := range perNode {
		if k > c.CoresPerNode && (over < 0 || n < over) {
			over = n
		}
	}
	if over >= 0 {
		return fmt.Errorf("cluster: node %d hosts %d tasks, capacity %d", over, perNode[over], c.CoresPerNode)
	}
	return nil
}

// SameNode reports whether two ranks share a node.
func (p Placement) SameNode(a, b int) bool { return p[a] == p[b] }
