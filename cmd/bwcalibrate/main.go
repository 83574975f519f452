// Command bwcalibrate runs the paper's Section V-A parameter estimation
// against a simulated substrate: beta from k-way outgoing conflicts,
// gamma_o and gamma_i from the Figure 4 scheme. It prints the fitted
// degree model and, with -check, its accuracy on the registry schemes.
//
// Usage:
//
//	bwcalibrate -net gige
//	bwcalibrate -net infiniband -kmax 6 -check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bwshare/internal/calibrate"
	"bwshare/internal/measure"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemes"
	"bwshare/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwcalibrate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwcalibrate", flag.ContinueOnError)
	net := fs.String("net", "gige", "substrate to calibrate against: gige, myrinet, infiniband")
	kmax := fs.Int("kmax", 4, "largest outgoing conflict used for beta estimation")
	volume := fs.Float64("volume", 20e6, "message volume in bytes")
	check := fs.Bool("check", false, "evaluate the fitted model on the registry schemes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, err := predict.LookupSubstrate(*net)
	if err != nil {
		return err
	}
	m, err := calibrate.Fit("fitted-"+e.Name(), e, *kmax, *volume)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "calibrated against %s (kmax=%d, volume=%.0f MB):\n", e.Name(), *kmax, *volume/1e6)
	fmt.Fprintf(out, "  beta    = %.4f\n", m.Beta)
	fmt.Fprintf(out, "  gamma_o = %.4f\n", m.GammaOut)
	fmt.Fprintf(out, "  gamma_i = %.4f\n", m.GammaIn)
	fmt.Fprintf(out, "(paper GigE values: beta 0.75, gamma_o 0.115, gamma_i 0.036)\n")
	if !*check {
		return nil
	}
	t := report.Table{
		Title:  "fitted model vs substrate (progressive prediction)",
		Header: []string{"scheme", "Eabs [%]"},
	}
	for _, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		meas := measure.Run(e, g)
		pred := predict.Times(g, m, meas.RefRate)
		t.AddRow(name, fmt.Sprintf("%.1f", stats.AbsErr(pred, meas.Times)))
	}
	t.Render(out)
	return nil
}
