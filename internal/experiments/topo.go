package experiments

import (
	"fmt"

	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/stats"
	"bwshare/internal/topology"
)

// EXP-TOPO: the multi-switch scenario class the paper never reaches.
// A shuffle scheme (every host sends one 20 MB message to the host one
// edge switch over) runs on a 4x4 two-level fat-tree whose uplink
// oversubscription sweeps from full bisection (1:1) to 8:1, on the GigE
// substrate and its calibrated model. On a crossbar the scheme is
// conflict-free (every NIC sends one flow and receives one flow); every
// slowdown in the table is therefore pure fabric contention, which makes
// the sweep a clean probe of the new uplink constraints.

// topoSweepSwitches and topoSweepHosts size the sweep fabric (16 hosts).
const (
	topoSweepSwitches = 4
	topoSweepHosts    = 4
)

// topoSweepVolume is the per-message volume: the paper's 20 MB.
const topoSweepVolume = 20e6

// TopoRow is one fabric point of the oversubscription sweep.
type TopoRow struct {
	// Fabric labels the point ("crossbar" or the fat-tree ratio).
	Fabric string
	// MeanPm and MeanPp are mean penalties: substrate measurement vs
	// progressive model prediction on the same fabric.
	MeanPm, MeanPp float64
	// MakespanM and MakespanP are the measured and predicted times of
	// the slowest communication, in seconds.
	MakespanM, MakespanP float64
	// Eabs is the mean absolute relative error of predicted vs measured
	// times, in percent.
	Eabs float64
	// MaxUtil is the highest per-uplink mean utilization observed on
	// the measured run (0 on the crossbar: no uplinks).
	MaxUtil float64
}

// TopoResult is the whole sweep.
type TopoResult struct {
	Scheme *graph.Graph
	Rows   []TopoRow
}

// shuffleScheme builds the inter-switch shuffle: host i sends
// topoSweepVolume bytes to host (i + hostsPerSwitch) mod hosts, so with
// block placement every communication crosses exactly one uplink and
// one downlink and each NIC carries one flow per direction.
func shuffleScheme(switches, hostsPerSwitch int) *graph.Graph {
	n := switches * hostsPerSwitch
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("c%d", i), graph.NodeID(i), graph.NodeID((i+hostsPerSwitch)%n), topoSweepVolume)
	}
	return b.MustBuild()
}

// TopoSweep measures and predicts the shuffle scheme on the crossbar and
// on 4x4 fat-trees with oversubscription 1, 2, 4 and 8.
func TopoSweep() TopoResult {
	g := shuffleScheme(topoSweepSwitches, topoSweepHosts)
	res := TopoResult{Scheme: g}
	fabrics := []struct {
		label string
		spec  topology.Spec
	}{
		{"crossbar", topology.Spec{}},
		{"fat-tree 1:1", topology.Spec{Kind: topology.FatTree, Switches: topoSweepSwitches, HostsPerSwitch: topoSweepHosts, Oversub: 1, Place: topology.Block}},
		{"fat-tree 2:1", topology.Spec{Kind: topology.FatTree, Switches: topoSweepSwitches, HostsPerSwitch: topoSweepHosts, Oversub: 2, Place: topology.Block}},
		{"fat-tree 4:1", topology.Spec{Kind: topology.FatTree, Switches: topoSweepSwitches, HostsPerSwitch: topoSweepHosts, Oversub: 4, Place: topology.Block}},
		{"fat-tree 8:1", topology.Spec{Kind: topology.FatTree, Switches: topoSweepSwitches, HostsPerSwitch: topoSweepHosts, Oversub: 8, Place: topology.Block}},
	}
	for _, f := range fabrics {
		cfg := gige.DefaultConfig()
		cfg.Topo = f.spec
		meas := measure.Run(gige.New(cfg), g)
		sess, _ := predict.New(predict.Spec{Model: model.NewGigE(), Ref: meas.RefRate, Topo: f.spec}) // healthy: cannot fail
		pred := append([]float64(nil), sess.Times(g)...)
		predPen := make([]float64, g.Len())
		for _, c := range g.Comms() {
			predPen[c.ID] = pred[c.ID] / (c.Volume / meas.RefRate)
		}
		row := TopoRow{
			Fabric:    f.label,
			MeanPm:    stats.Mean(meas.Penalties),
			MeanPp:    stats.Mean(predPen),
			MakespanM: maxOf(meas.Times),
			MakespanP: maxOf(pred),
			Eabs:      stats.AbsErr(pred, meas.Times),
		}
		for _, l := range report.BuildLinkUtil(f.spec, g, meas.Times, meas.RefRate) {
			if l.Utilization > row.MaxUtil {
				row.MaxUtil = l.Utilization
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// TopoTable renders the sweep.
func TopoTable(r TopoResult) string {
	t := report.Table{
		Title: fmt.Sprintf("EXP-TOPO - fat-tree oversubscription sweep: %d-host shuffle, %dx%d edge switches, GigE",
			topoSweepSwitches*topoSweepHosts, topoSweepSwitches, topoSweepHosts),
		Header: []string{"fabric", "mean Pm", "mean Pp", "makespan Tm [s]", "makespan Tp [s]", "Eabs [%]", "max link util"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Fabric,
			fmt.Sprintf("%.3f", row.MeanPm),
			fmt.Sprintf("%.3f", row.MeanPp),
			fmt.Sprintf("%.4f", row.MakespanM),
			fmt.Sprintf("%.4f", row.MakespanP),
			fmt.Sprintf("%.1f", row.Eabs),
			fmt.Sprintf("%.2f", row.MaxUtil))
	}
	return t.String()
}
