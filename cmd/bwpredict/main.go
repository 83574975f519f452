// Command bwpredict predicts per-communication times and penalties for a
// scheme with one of the paper's models, using the progressive simulator
// of Section VI-A (or the static formulas with -static).
//
// Usage:
//
//	bwpredict -model myrinet -scheme mk2
//	bwpredict -model gige -file myscheme.txt -static
//	bwpredict -model gige -scheme s5 -compare   # side by side with substrate
//	bwpredict -model gige -scheme s6 -topology "fattree 2x4 oversub 4"
//
// A scheme file may declare its fabric with a 'topology:' header
// instead of the -topology flag (not both). On a multi-switch fabric
// the report gains a per-uplink utilization table. 'fault:' headers
// degrade the fabric mid-replay (see the schemelang package doc); the
// prediction then runs on the dynamic, faulted fabric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwpredict:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwpredict", flag.ContinueOnError)
	modelName := fs.String("model", "gige", "penalty model: gige, myrinet, infiniband, kimlee, linear")
	schemeName := fs.String("scheme", "", "named scheme: "+strings.Join(schemes.Names(), ", "))
	file := fs.String("file", "", "scheme description file ('-' for stdin)")
	static := fs.Bool("static", false, "use the static formulas instead of the progressive simulator")
	compare := fs.Bool("compare", false, "also run the matching substrate and print errors")
	refFlag := fs.Float64("ref", 0, "reference rate override in bytes/second (0 = substrate default)")
	topoFlag := fs.String("topology", "", `switch fabric, e.g. "fattree 2x4 oversub 2" (default: the scheme's header, or a crossbar)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag parsing happily produces negative, NaN and ±Inf floats;
	// reject them here instead of predicting garbage penalties.
	if !core.ValidRefRate(*refFlag) {
		return fmt.Errorf("-ref must be a positive finite rate in bytes/second, got %g", *refFlag)
	}
	g, topo, sched, err := loadScheme(*schemeName, *file)
	if err != nil {
		return err
	}
	if *topoFlag != "" {
		if !topo.Trivial() {
			return fmt.Errorf("the scheme file already declares topology %q; drop -topology", topo)
		}
		if topo, err = topology.ParseSpec(*topoFlag); err != nil {
			return err
		}
		if err := topo.CheckFit(g.MaxNode()); err != nil {
			return err
		}
		// Link faults were already validated against the file's own
		// (trivial) fabric at parse time; a file that degrades uplinks
		// must declare its fabric in the same file.
	}
	if !topo.Trivial() && *static {
		return fmt.Errorf("-static is crossbar-only (the static formulas cannot see the fabric); drop -static or the topology")
	}
	if !sched.Empty() && *static {
		return fmt.Errorf("-static cannot model faults (the static formulas have no clock); drop -static or the fault: headers")
	}
	m, sub, err := predict.LookupModel(*modelName)
	if err != nil {
		return err
	}
	ref := *refFlag
	if ref == 0 {
		ref = sub.RefRate()
	}
	if !sched.Empty() && *compare {
		return fmt.Errorf("-compare measures the healthy substrate; drop -compare or the fault: headers")
	}
	sess, err := predict.New(predict.Spec{Model: m, Ref: ref, Topo: topo, Faults: sched})
	if err != nil {
		return err
	}
	// Penalties first: times points into session scratch, which is only
	// valid until the next Session call.
	pen := sess.StaticPenalties(g)
	var times []float64
	if *static {
		times = sess.StaticTimes(g)
	} else {
		times = sess.Times(g)
	}
	var meas []float64
	if *compare {
		if !topo.Trivial() {
			return fmt.Errorf("-compare with -topology is not supported yet (the catalog substrates are crossbar-calibrated)")
		}
		if *refFlag != 0 {
			// The substrate always measures at its calibrated rate; error
			// columns against a prediction at a different rate would
			// quantify the rate mismatch, not the model.
			return fmt.Errorf("-compare uses the substrate's calibrated rate; drop -ref")
		}
		meas = measure.Run(sub, g).Times
	}
	report.PredictionText(out, m.Name(), !*static, ref, g, pen, times, meas)
	if !topo.Trivial() {
		report.LinkUtilText(out, topo, report.BuildLinkUtil(topo, g, times, ref))
	}
	return nil
}

func loadScheme(name, file string) (*graph.Graph, topology.Spec, fault.Schedule, error) {
	switch {
	case name != "" && file != "":
		return nil, topology.Spec{}, fault.Schedule{}, fmt.Errorf("use either -scheme or -file, not both")
	case name != "":
		g, ok := schemes.Named(name)
		if !ok {
			return nil, topology.Spec{}, fault.Schedule{}, fmt.Errorf("unknown scheme %q", name)
		}
		return g, topology.Spec{}, fault.Schedule{}, nil
	case file == "-":
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, topology.Spec{}, fault.Schedule{}, err
		}
		return schemelang.ParseFull(string(src))
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, topology.Spec{}, fault.Schedule{}, err
		}
		return schemelang.ParseFull(string(src))
	default:
		return nil, topology.Spec{}, fault.Schedule{}, fmt.Errorf("need -scheme <name> or -file <path>")
	}
}
