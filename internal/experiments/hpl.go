package experiments

import (
	"fmt"
	"strings"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/hpl"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/replay"
	"bwshare/internal/report"
	"bwshare/internal/sched"
	"bwshare/internal/stats"
	"bwshare/internal/trace"
)

// HPLConfig parameterizes the Figures 8-9 experiments.
type HPLConfig struct {
	// N is the HPL problem size; the paper uses 20500.
	N int
	// Tasks is the MPI task count; Nodes the cluster size.
	Tasks, Nodes int
	// Seed feeds the Random placement.
	Seed int64
}

// DefaultHPL is the paper's configuration: N=20500 on dual-core nodes.
func DefaultHPL() HPLConfig {
	return HPLConfig{N: 20500, Tasks: 16, Nodes: 8, Seed: 42}
}

// HPLSchedulingResult holds measured-vs-predicted per-task communication
// sums for one placement strategy.
type HPLSchedulingResult struct {
	Strategy string
	// Sm and Sp are per-task summed send times: measured (substrate)
	// and predicted (model simulator).
	Sm, Sp []float64
	// Eabs is the per-task absolute error |(Sp-Sm)/Sm|*100.
	Eabs []float64
	// MeanEabs and MaxEabs summarize.
	MeanEabs, MaxEabs float64
	// Makespans of the measured and predicted runs.
	MeasuredMakespan, PredictedMakespan float64
}

// HPLResult is one whole figure (one network).
type HPLResult struct {
	Network     string
	Model       string
	Schedulings []HPLSchedulingResult
}

// runHPL replays the generated HPL trace on a measured engine and a
// model engine under every placement strategy.
func runHPL(cfg HPLConfig, meas core.Engine, m core.Model) (HPLResult, error) {
	clu := cluster.Default(cfg.Nodes)
	gen := hpl.Default(cfg.Tasks)
	gen.N = cfg.N
	tr, err := hpl.Generate(gen)
	if err != nil {
		return HPLResult{}, err
	}
	res := HPLResult{Network: meas.Name(), Model: m.Name()}
	pe, err := predict.NewEngine(predict.Spec{Model: m, Ref: meas.RefRate()})
	if err != nil {
		return HPLResult{}, err
	}
	for _, strat := range sched.Strategies() {
		place, err := sched.Place(strat, clu, cfg.Tasks, cfg.Seed)
		if err != nil {
			return HPLResult{}, err
		}
		mr, err := replay.Run(meas, clu, place, tr)
		if err != nil {
			return HPLResult{}, fmt.Errorf("measured replay (%s): %w", strat, err)
		}
		pr, err := replay.Run(pe, clu, place, tr)
		if err != nil {
			return HPLResult{}, fmt.Errorf("predicted replay (%s): %w", strat, err)
		}
		sm, sp := mr.CommTimes(), pr.CommTimes()
		eabs := stats.TaskAbsErrs(sp, sm)
		res.Schedulings = append(res.Schedulings, HPLSchedulingResult{
			Strategy:          strat,
			Sm:                sm,
			Sp:                sp,
			Eabs:              eabs,
			MeanEabs:          stats.Mean(eabs),
			MaxEabs:           stats.Max(eabs),
			MeasuredMakespan:  mr.Makespan,
			PredictedMakespan: pr.Makespan,
		})
	}
	return res, nil
}

// Fig8 evaluates the GigE model on HPL (paper Figure 8).
func Fig8(cfg HPLConfig) (HPLResult, error) {
	return runHPL(cfg, gige.New(gige.DefaultConfig()), model.NewGigE())
}

// Fig9 evaluates the Myrinet model on HPL (paper Figure 9).
func Fig9(cfg HPLConfig) (HPLResult, error) {
	return runHPL(cfg, myrinet.New(myrinet.DefaultConfig()), model.NewMyrinet())
}

// HPLText renders an HPL result as per-task bar chart plus summary table,
// mirroring the layout of Figures 8-9 (bars: measured and predicted
// per-task communication time; line: absolute error per task).
func HPLText(r HPLResult, figure string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s - %s model on HPL (substrate: %s)\n\n", figure, r.Model, r.Network)
	for _, s := range r.Schedulings {
		chart := report.BarChart{
			Title:  fmt.Sprintf("scheduling %s: per-task communication time", strings.ToUpper(s.Strategy)),
			Series: []string{"measured", "predicted"},
			Width:  36,
			Unit:   "s",
		}
		for rank := range s.Sm {
			chart.Labels = append(chart.Labels, fmt.Sprintf("task %2d", rank))
			chart.Values = append(chart.Values, []float64{s.Sm[rank], s.Sp[rank]})
		}
		chart.Render(&sb)
		t := report.Table{Header: []string{"task", "Sm [s]", "Sp [s]", "Eabs [%]"}}
		for rank := range s.Sm {
			t.AddRow(fmt.Sprint(rank),
				fmt.Sprintf("%.3f", s.Sm[rank]),
				fmt.Sprintf("%.3f", s.Sp[rank]),
				fmt.Sprintf("%.1f", s.Eabs[rank]))
		}
		t.Render(&sb)
		fmt.Fprintf(&sb, "  mean Eabs = %.1f%%, max = %.1f%% | makespan measured %.1f s, predicted %.1f s\n\n",
			s.MeanEabs, s.MaxEabs, s.MeasuredMakespan, s.PredictedMakespan)
	}
	return sb.String()
}

// traceForBench exposes the generated trace size for benchmarks and
// tests without re-deriving the generator configuration.
func traceForBench(cfg HPLConfig) (*trace.Trace, error) {
	gen := hpl.Default(cfg.Tasks)
	gen.N = cfg.N
	return hpl.Generate(gen)
}
