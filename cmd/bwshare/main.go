// Command bwshare is the reproduction of the paper's measurement
// software (Section IV-B): it runs a communication scheme on a simulated
// interconnect substrate, all transfers starting simultaneously, and
// prints per-communication times and penalties Pi = Ti/Tref.
//
// Usage:
//
//	bwshare -net myrinet -scheme s5
//	bwshare -net gige -file myscheme.txt
//	echo 'a: 0 -> 1
//	      b: 0 -> 2' | bwshare -net infiniband -file -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwshare:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwshare", flag.ContinueOnError)
	net := fs.String("net", "gige", "substrate: gige, myrinet or infiniband")
	schemeName := fs.String("scheme", "", "named scheme from the paper registry: "+strings.Join(schemes.Names(), ", "))
	file := fs.String("file", "", "scheme description file ('-' for stdin)")
	dot := fs.Bool("dot", false, "also print the scheme in Graphviz dot syntax")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadScheme(*schemeName, *file)
	if err != nil {
		return err
	}
	e, err := predict.LookupSubstrate(*net)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(out, g.DOT("scheme"))
	}
	r := measure.Run(e, g)
	tref := 20e6 / r.RefRate
	fmt.Fprintf(out, "substrate %s: ref rate %.1f MB/s (Tref(20MB) = %.4f s)\n", e.Name(), r.RefRate/1e6, tref)
	t := report.Table{Header: []string{"comm", "src", "dst", "volume [MB]", "time [s]", "penalty"}}
	for _, c := range g.Comms() {
		t.AddRow(c.Label, fmt.Sprint(c.Src), fmt.Sprint(c.Dst),
			fmt.Sprintf("%.1f", c.Volume/1e6),
			fmt.Sprintf("%.4f", r.Times[c.ID]),
			fmt.Sprintf("%.3f", r.Penalties[c.ID]))
	}
	t.Render(out)
	return nil
}

func loadScheme(name, file string) (*graph.Graph, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("use either -scheme or -file, not both")
	case name != "":
		g, ok := schemes.Named(name)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q (known: %s)", name, strings.Join(schemes.Names(), ", "))
		}
		return g, nil
	case file == "-":
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return schemelang.Parse(string(src))
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return schemelang.Parse(string(src))
	default:
		return nil, fmt.Errorf("need -scheme <name> or -file <path>")
	}
}
