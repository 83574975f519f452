// Command bwhpl generates Linpack (HPL) application traces with the
// paper's ring communication scheme and replays them: measured on a
// substrate, predicted with the matching model, per placement strategy
// (Figures 8-9 pipeline).
//
// Usage:
//
//	bwhpl -gen trace.jsonl -n 20500 -tasks 16        # write a trace
//	bwhpl -net myrinet -sched rrn                    # full evaluation
//	bwhpl -net gige -sched random -seed 7 -n 10000
//	bwhpl -net myrinet -trace trace.jsonl -sched rrp # replay a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bwshare/internal/cluster"
	"bwshare/internal/hpl"
	"bwshare/internal/predict"
	"bwshare/internal/replay"
	"bwshare/internal/report"
	"bwshare/internal/sched"
	"bwshare/internal/stats"
	"bwshare/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwhpl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwhpl", flag.ContinueOnError)
	gen := fs.String("gen", "", "write the generated trace to this file and exit")
	traceFile := fs.String("trace", "", "replay this trace file instead of generating one")
	n := fs.Int("n", 20500, "HPL problem size N")
	tasks := fs.Int("tasks", 16, "MPI task count")
	nodes := fs.Int("nodes", 8, "cluster node count (2 cores per node)")
	net := fs.String("net", "myrinet", "substrate + model: gige or myrinet")
	strategy := fs.String("sched", "rrn", "placement: rrn, rrp or random")
	seed := fs.Int64("seed", 42, "seed for the random placement")
	jitter := fs.Float64("jitter", 0.35, "per-task compute jitter in [0,1)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.Read(f)
		if err != nil {
			return err
		}
	} else {
		cfg := hpl.Default(*tasks)
		cfg.N = *n
		cfg.Jitter = *jitter
		var err error
		tr, err = hpl.Generate(cfg)
		if err != nil {
			return err
		}
	}
	if *gen != "" {
		f, err := os.Create(*gen)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Write(f, tr); err != nil {
			return err
		}
		s := tr.Summary()
		fmt.Fprintf(out, "wrote %s: %d tasks, %d events, %d sends, %.1f GB\n",
			*gen, s.Tasks, s.Events, s.Sends, s.TotalBytes/1e9)
		return nil
	}

	// The substrate lookup rejects the baseline models (kimlee, linear),
	// which have no network of their own.
	eng, err := predict.LookupSubstrate(*net)
	if err != nil {
		return err
	}
	mod, _, err := predict.LookupModel(*net)
	if err != nil {
		return err
	}
	clu := cluster.Default(*nodes)
	place, err := sched.Place(*strategy, clu, tr.NumTasks(), *seed)
	if err != nil {
		return err
	}
	meas, err := replay.Run(eng, clu, place, tr)
	if err != nil {
		return fmt.Errorf("measured replay: %w", err)
	}
	pe, err := predict.NewEngine(predict.Spec{Model: mod, Ref: eng.RefRate()})
	if err != nil {
		return err
	}
	pred, err := replay.Run(pe, clu, place, tr)
	if err != nil {
		return fmt.Errorf("predicted replay: %w", err)
	}
	sm, sp := meas.CommTimes(), pred.CommTimes()
	eabs := stats.TaskAbsErrs(sp, sm)
	fmt.Fprintf(out, "HPL on %s, %d tasks / %d nodes, scheduling %s\n",
		eng.Name(), tr.NumTasks(), *nodes, *strategy)
	t := report.Table{Header: []string{"task", "node", "Sm [s]", "Sp [s]", "Eabs [%]"}}
	for rank := range sm {
		t.AddRow(fmt.Sprint(rank), fmt.Sprint(place[rank]),
			fmt.Sprintf("%.3f", sm[rank]),
			fmt.Sprintf("%.3f", sp[rank]),
			fmt.Sprintf("%.1f", eabs[rank]))
	}
	t.Render(out)
	fmt.Fprintf(out, "  mean Eabs = %.1f%%, max = %.1f%%\n", stats.Mean(eabs), stats.Max(eabs))
	fmt.Fprintf(out, "  makespan: measured %.1f s, predicted %.1f s\n", meas.Makespan, pred.Makespan)
	return nil
}
