package experiments

import (
	"fmt"

	"bwshare/internal/core"
	"bwshare/internal/graph"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/randgen"
	"bwshare/internal/report"
	"bwshare/internal/topology"
)

// EXP-CHURN: multi-job consolidation under churn — the scenario class
// the incremental component-scoped allocator (PR 5) opens up. Many
// independent jobs (each a 4-node ring of simultaneous transfers)
// arrive staggered on one shared fabric and depart when their transfers
// finish, so the active flow set churns continuously instead of
// starting as one barrier-synchronized scheme. On a crossbar (and on a
// fat-tree with block placement) every job is its own constraint-graph
// component: allocation events touch one job, rates elsewhere stay
// cached, and jobs run at full speed regardless of consolidation level.
// Round-robin placement makes every flow cross the oversubscribed core,
// coupling the jobs through shared uplinks — the slowdown columns show
// exactly what that coupling costs as consolidation grows.

const (
	// churnNodesPerJob is the per-job cluster size (a 4-node ring).
	churnNodesPerJob = 4
	// churnWindow is the arrival window in seconds: all jobs of a level
	// arrive evenly spread across it, so raising the job count raises
	// concurrency — that is the consolidation being swept.
	churnWindow = 0.32
	// churnBaseVolume is the nominal per-transfer volume (the paper's
	// 20 MB), jittered per job so departures interleave with arrivals.
	churnBaseVolume = 20e6
	// churnSeed fixes the per-job volume jitter.
	churnSeed = 77
)

// ChurnRow is one (fabric, consolidation level) point of the sweep.
type ChurnRow struct {
	Fabric string
	// Jobs is the number of jobs churned through the fabric.
	Jobs int
	// Flows is the total number of transfers started.
	Flows int
	// Peak is the highest number of concurrently active transfers.
	Peak int
	// Makespan is the time from the first arrival to the last departure
	// in seconds.
	Makespan float64
	// MeanSlow and MaxSlow are job slowdowns: time in system divided by
	// the job's ideal duration on an idle network. 1.0 means perfect
	// isolation.
	MeanSlow, MaxSlow float64
}

// ChurnResult is the whole sweep.
type ChurnResult struct {
	Rows []ChurnRow
}

// churnScenario replays one churn run: jobs staggered arrivals on the
// GigE substrate over the given fabric.
func churnScenario(spec topology.Spec, jobs int) ChurnRow {
	cfg := gige.DefaultConfig()
	cfg.Topo = spec
	e := gige.New(cfg)
	ref := e.RefRate()
	rng := randgen.NewRand(churnSeed)

	type jobState struct {
		arrive, volume float64
		remaining      int
		finish         float64
	}
	state := make([]jobState, jobs)
	flowJob := make(map[int]int, churnNodesPerJob*jobs)
	row := ChurnRow{Fabric: spec.String(), Jobs: jobs}
	active := 0
	record := func(c core.Completion) {
		j := flowJob[c.Flow]
		active--
		state[j].remaining--
		if state[j].remaining == 0 {
			state[j].finish = c.Time
		}
	}
	spacing := churnWindow / float64(jobs)
	for j := 0; j < jobs; j++ {
		t := float64(j) * spacing
		for {
			done, _ := e.Advance(t)
			if len(done) == 0 {
				break
			}
			for _, c := range done {
				record(c)
			}
		}
		vol := churnBaseVolume * (0.75 + float64(0.5*rng.Float64()))
		state[j] = jobState{arrive: t, volume: vol, remaining: churnNodesPerJob}
		base := graph.NodeID(j * churnNodesPerJob)
		for k := 0; k < churnNodesPerJob; k++ {
			src := base + graph.NodeID(k)
			dst := base + graph.NodeID((k+1)%churnNodesPerJob)
			flowJob[e.StartFlow(src, dst, vol, t)] = j
			row.Flows++
			active++
		}
		if active > row.Peak {
			row.Peak = active
		}
	}
	for {
		done, _ := e.Advance(core.Inf)
		if len(done) == 0 {
			break
		}
		for _, c := range done {
			record(c)
		}
	}
	if active != 0 {
		panic(fmt.Sprintf("experiments: churn run left %d flows unfinished", active))
	}
	sum := 0.0
	for j := range state {
		ideal := state[j].volume / ref
		slow := (state[j].finish - state[j].arrive) / ideal
		sum += slow
		if slow > row.MaxSlow {
			row.MaxSlow = slow
		}
		if state[j].finish > row.Makespan {
			row.Makespan = state[j].finish
		}
	}
	row.MeanSlow = sum / float64(jobs)
	return row
}

// ChurnSweep runs the consolidation sweep: 4, 16 and 64 jobs on a
// crossbar and on 2:1-oversubscribed fat-trees with block (job-aligned)
// and round-robin (job-scattering) placement. Volumes are identical
// across fabrics at each level, so rows are directly comparable.
func ChurnSweep() ChurnResult {
	var res ChurnResult
	for _, jobs := range []int{4, 16, 64} {
		fabrics := []topology.Spec{
			{},
			{Kind: topology.FatTree, Switches: jobs, HostsPerSwitch: churnNodesPerJob, Oversub: 2, Place: topology.Block},
			{Kind: topology.FatTree, Switches: jobs, HostsPerSwitch: churnNodesPerJob, Oversub: 2, Place: topology.RoundRobin},
		}
		for _, spec := range fabrics {
			res.Rows = append(res.Rows, churnScenario(spec, jobs))
		}
	}
	return res
}

// ChurnTable renders the sweep.
func ChurnTable(r ChurnResult) string {
	t := report.Table{
		Title: fmt.Sprintf("EXP-CHURN - multi-job consolidation churn: %d-node ring jobs arriving over %.0f ms, GigE",
			churnNodesPerJob, churnWindow*1e3),
		Header: []string{"fabric", "jobs", "flows", "peak", "makespan [s]", "mean slowdown", "max slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Fabric,
			fmt.Sprint(row.Jobs),
			fmt.Sprint(row.Flows),
			fmt.Sprint(row.Peak),
			fmt.Sprintf("%.3f", row.Makespan),
			fmt.Sprintf("%.3f", row.MeanSlow),
			fmt.Sprintf("%.3f", row.MaxSlow))
	}
	return t.String()
}
