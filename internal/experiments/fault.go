package experiments

import (
	"fmt"
	"math/rand/v2"

	"bwshare/internal/fault"
	"bwshare/internal/fleet"
	"bwshare/internal/graph"
	"bwshare/internal/randgen"
	"bwshare/internal/report"
	"bwshare/internal/topology"
)

// EXP-FAULT: placement resilience under link failures. An 8-task ring
// job asks the placement engine for candidates on a 4x4 fat-tree with a
// 4:1 oversubscribed core, once on the healthy fabric and once per
// seeded random fault trial (a permanently degraded uplink plus a
// mid-replay link outage with repair). Each strategy's slowdown is its
// faulted predicted completion time over its own healthy one, so the
// sweep isolates *resilience* from raw placement quality: a strategy
// that stripes the ring across every switch exposes every uplink to
// every fault, while one that keeps the ring on few switches gambles on
// the fault landing elsewhere — and wins on average. The whole sweep is
// a fixed sequence of seeded deterministic predictions: its output is
// byte-identical for any runner worker count.

const (
	// faultSwitches and faultHostsPerSwitch size the sweep fabric
	// (16 hosts); faultOversub is the core oversubscription.
	faultSwitches       = 4
	faultHostsPerSwitch = 4
	faultOversub        = 4
	// faultRingTasks is the job size: an 8-task ring of 20 MB transfers.
	faultRingTasks = 8
	// faultVolume is the per-transfer volume (the paper's 20 MB).
	faultVolume = 20e6
	// faultTrials is the number of seeded fault schedules swept.
	faultTrials = 12
	// faultSeed fixes the trial schedules.
	faultSeed = 9000
)

// FaultRow aggregates one placement strategy across all fault trials.
type FaultRow struct {
	Strategy string
	// Healthy is the strategy's predicted job completion time on the
	// intact fabric, in seconds.
	Healthy float64
	// MeanTime is the mean faulted completion time across trials.
	MeanTime float64
	// MeanSlow and MaxSlow are the mean and worst slowdown across trials
	// (faulted time over the strategy's own healthy time; 1.0 means the
	// faults never touched this placement).
	MeanSlow, MaxSlow float64
}

// FaultResult is the whole sweep.
type FaultResult struct {
	Trials int
	Rows   []FaultRow // in faultStrategies order
}

// faultStrategies is the presentation order of the compared strategies.
var faultStrategies = []string{"block", "greedy", "roundrobin"}

// faultFabric is the sweep's fat-tree.
func faultFabric() topology.Spec {
	return topology.Spec{
		Kind:           topology.FatTree,
		Switches:       faultSwitches,
		HostsPerSwitch: faultHostsPerSwitch,
		Oversub:        faultOversub,
	}
}

// faultRing builds the ring scheme over task ranks.
func faultRing() *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < faultRingTasks; i++ {
		b.Add(fmt.Sprintf("r%d", i), graph.NodeID(i), graph.NodeID((i+1)%faultRingTasks), faultVolume)
	}
	return b.MustBuild()
}

// faultTrial draws one trial schedule: an uplink permanently degraded
// from t=0 and a second uplink hard-down for a window inside the job's
// healthy runtime (horizon). Repairs are always scheduled, so no trial
// stalls a prediction forever.
func faultTrial(rng *rand.Rand, horizon float64) fault.Schedule {
	return fault.Schedule{Events: []fault.Event{
		{Kind: fault.LinkDegrade, Target: rng.IntN(faultSwitches), Factor: 0.2 + float64(0.5*rng.Float64()), At: 0},
		{Kind: fault.LinkDown, Target: rng.IntN(faultSwitches), At: 0.2 * horizon, Until: (0.4 + float64(0.4*rng.Float64())) * horizon},
	}}
}

// strategyTimes runs one placement enumeration and indexes the
// candidates' predicted job times by strategy name.
func strategyTimes(m *fleet.Manager, cluster string, ring *graph.Graph) (map[string]float64, error) {
	cands, err := m.Placements(cluster, ring, 0)
	if err != nil {
		return nil, err
	}
	times := make(map[string]float64, len(cands))
	for _, c := range cands {
		times[c.Strategy] = c.JobTime
	}
	for _, s := range faultStrategies {
		if _, ok := times[s]; !ok {
			return nil, fmt.Errorf("experiments: cluster %q enumerated no %q candidate", cluster, s)
		}
	}
	return times, nil
}

// FaultSweep runs the resilience sweep on the GigE model.
func FaultSweep() (FaultResult, error) {
	ring := faultRing()
	m := fleet.NewManager()
	if _, err := m.Create(fleet.Spec{Name: "healthy", Topo: faultFabric()}); err != nil {
		return FaultResult{}, err
	}
	healthy, err := strategyTimes(m, "healthy", ring)
	if err != nil {
		return FaultResult{}, err
	}
	// The outage window is sized to the healthy block time: every trial's
	// down-phase overlaps the ring's transfer no matter where it lands.
	horizon := healthy["block"]
	sums := make(map[string]float64, len(faultStrategies))
	maxes := make(map[string]float64, len(faultStrategies))
	for k := 0; k < faultTrials; k++ {
		rng := randgen.NewRand(faultSeed + int64(k))
		name := fmt.Sprintf("trial-%d", k)
		if _, err := m.Create(fleet.Spec{Name: name, Topo: faultFabric(), Faults: faultTrial(rng, horizon)}); err != nil {
			return FaultResult{}, err
		}
		faulted, err := strategyTimes(m, name, ring)
		if err != nil {
			return FaultResult{}, err
		}
		for _, s := range faultStrategies {
			sums[s] += faulted[s]
			if slow := faulted[s] / healthy[s]; slow > maxes[s] {
				maxes[s] = slow
			}
		}
	}
	res := FaultResult{Trials: faultTrials}
	for _, s := range faultStrategies {
		mean := sums[s] / faultTrials
		res.Rows = append(res.Rows, FaultRow{
			Strategy: s,
			Healthy:  healthy[s],
			MeanTime: mean,
			MeanSlow: mean / healthy[s],
			MaxSlow:  maxes[s],
		})
	}
	return res, nil
}

// FaultTable renders the sweep.
func FaultTable(r FaultResult) string {
	t := report.Table{
		Title: fmt.Sprintf("EXP-FAULT - placement resilience under link faults: %d-task ring, %dx%d fat-tree %d:1, %d trials, GigE",
			faultRingTasks, faultSwitches, faultHostsPerSwitch, faultOversub, r.Trials),
		Header: []string{"strategy", "healthy T [s]", "mean faulted T [s]", "mean slowdown", "max slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Strategy,
			fmt.Sprintf("%.4f", row.Healthy),
			fmt.Sprintf("%.4f", row.MeanTime),
			fmt.Sprintf("%.3f", row.MeanSlow),
			fmt.Sprintf("%.3f", row.MaxSlow))
	}
	return t.String()
}
