package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
)

func TestPredictNamedScheme(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "myrinet", "-scheme", "mk2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "static penalty") {
		t.Errorf("missing table:\n%s", sb.String())
	}
}

func TestPredictStaticVsProgressive(t *testing.T) {
	var prog, stat strings.Builder
	if err := run([]string{"-model", "gige", "-scheme", "fig4"}, &prog); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "gige", "-scheme", "fig4", "-static"}, &stat); err != nil {
		t.Fatal(err)
	}
	if prog.String() == stat.String() {
		t.Error("static and progressive predictions should differ on fig4")
	}
}

func TestPredictCompare(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "myrinet", "-scheme", "s5", "-compare"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"measured", "Erel", "Eabs"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q:\n%s", want, sb.String())
		}
	}
}

func TestPredictAllModels(t *testing.T) {
	for _, m := range []string{"gige", "myrinet", "infiniband", "kimlee", "linear"} {
		var sb strings.Builder
		if err := run([]string{"-model", m, "-scheme", "s3"}, &sb); err != nil {
			t.Errorf("model %s: %v", m, err)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-model", "nope", "-scheme", "s1"},
		{"-model", "gige"},
		{"-model", "gige", "-scheme", "bogus"},
		// Non-positive and non-finite reference rates survive flag
		// parsing; the boundary must reject them.
		{"-model", "gige", "-scheme", "s1", "-ref", "-1"},
		{"-model", "gige", "-scheme", "s1", "-ref", "0.0e0x"},
		{"-model", "gige", "-scheme", "s1", "-ref", "Inf"},
		{"-model", "gige", "-scheme", "s1", "-ref", "NaN"},
		// -compare columns are only meaningful at the substrate's own
		// calibrated rate and on its crossbar fabric.
		{"-model", "gige", "-scheme", "s1", "-compare", "-ref", "1e6"},
		{"-model", "gige", "-scheme", "s6", "-compare", "-topology", "fattree 2x4 oversub 2"},
		// The static formulas cannot see a fabric.
		{"-model", "gige", "-scheme", "s6", "-static", "-topology", "fattree 2x4 oversub 2"},
		// Bad and conflicting topology declarations.
		{"-model", "gige", "-scheme", "s6", "-topology", "mesh 2x4"},
		{"-model", "gige", "-scheme", "s6", "-topology", "star 2x2"}, // s6 has 7 nodes
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestPredictTopologyFlag: the -topology flag produces the same output
// as the equivalent scheme-file header, including the link table.
func TestPredictTopologyFlag(t *testing.T) {
	g, _ := schemes.Named("s6")
	path := filepath.Join(t.TempDir(), "s6topo.txt")
	src := "topology: fattree 2x4 oversub 4\n" + schemelang.Format(g)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromFlag strings.Builder
	if err := run([]string{"-model", "gige", "-file", path}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "gige", "-scheme", "s6", "-topology", "fattree 2x4 oversub 4"}, &fromFlag); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromFlag.String() {
		t.Errorf("-topology flag differs from file header:\n%s\nvs\n%s", fromFile.String(), fromFlag.String())
	}
	if !strings.Contains(fromFlag.String(), "topology fattree 2x4 oversub 4 place block") {
		t.Errorf("missing link table:\n%s", fromFlag.String())
	}
	// A file header plus the flag is ambiguous.
	if err := run([]string{"-model", "gige", "-file", path, "-topology", "star 2x4"}, &fromFlag); err == nil {
		t.Error("file header plus -topology accepted")
	}
}

// TestPredictFileMatchesCatalog renders a catalog scheme into a
// schemelang file and checks the -file path produces byte-identical
// output to -scheme.
func TestPredictFileMatchesCatalog(t *testing.T) {
	g, _ := schemes.Named("s2")
	path := filepath.Join(t.TempDir(), "s2.txt")
	if err := os.WriteFile(path, []byte(schemelang.Format(g)), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromName strings.Builder
	if err := run([]string{"-model", "gige", "-file", path}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "gige", "-scheme", "s2"}, &fromName); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromName.String() {
		t.Errorf("-file output differs from -scheme:\n%s\nvs\n%s", fromFile.String(), fromName.String())
	}
}

func TestPredictCompareFromFile(t *testing.T) {
	g, _ := schemes.Named("s3")
	path := filepath.Join(t.TempDir(), "s3.txt")
	if err := os.WriteFile(path, []byte(schemelang.Format(g)), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-model", "gige", "-file", path, "-compare"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"measured [s]", "Erel [%]", "Eabs ="} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q:\n%s", want, sb.String())
		}
	}
}

func TestPredictStaticCompare(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "gige", "-scheme", "fig4", "-static", "-compare"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "progressive=false") || !strings.Contains(sb.String(), "Eabs =") {
		t.Errorf("static compare output wrong:\n%s", sb.String())
	}
}

func TestPredictMalformedSchemeFile(t *testing.T) {
	cases := map[string]string{
		"missing arrow":   "a: 0 1\n",
		"no label":        "0 -> 1\n",
		"bad node":        "a: x -> 1\n",
		"bad volume":      "a: 0 -> 1 12XB\n",
		"negative volume": "a: 0 -> 1 -3MB\n",
		"self loop":       "a: 2 -> 2\n",
		"empty scheme":    "# only a comment\n",
	}
	for name, src := range cases {
		path := filepath.Join(t.TempDir(), "bad.txt")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run([]string{"-model", "gige", "-file", path}, &sb); err == nil {
			t.Errorf("%s: expected a parse error", name)
		}
	}
}

func TestPredictFileErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "gige", "-file", "/nonexistent/scheme.txt"}, &sb); err == nil {
		t.Error("nonexistent file should error")
	}
	if err := run([]string{"-model", "gige", "-scheme", "s1", "-file", "x.txt"}, &sb); err == nil {
		t.Error("-scheme with -file should error")
	}
	if err := run([]string{"-model", "gige", "-scheme", "s1", "-bogus"}, &sb); err == nil {
		t.Error("unknown flag should error")
	}
}

// TestPredictFaultHeaders: a file's fault: headers slow the prediction
// down, and the flags that cannot see a dynamic fabric reject them.
func TestPredictFaultHeaders(t *testing.T) {
	g, _ := schemes.Named("s6")
	body := "topology: fattree 2x4 oversub 4\n" + schemelang.Format(g)
	healthyPath := filepath.Join(t.TempDir(), "healthy.txt")
	faultedPath := filepath.Join(t.TempDir(), "faulted.txt")
	if err := os.WriteFile(healthyPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	faulted := "fault: link 0 degrade 0.25 at 0 until 1e9\n" + body
	if err := os.WriteFile(faultedPath, []byte(faulted), 0o644); err != nil {
		t.Fatal(err)
	}
	var healthy, degraded strings.Builder
	if err := run([]string{"-model", "gige", "-file", healthyPath}, &healthy); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "gige", "-file", faultedPath}, &degraded); err != nil {
		t.Fatal(err)
	}
	if healthy.String() == degraded.String() {
		t.Error("a degraded uplink should change the prediction")
	}
	var sb strings.Builder
	if err := run([]string{"-model", "gige", "-file", faultedPath, "-static"}, &sb); err == nil {
		t.Error("-static with fault: headers accepted")
	}
	if err := run([]string{"-model", "gige", "-file", faultedPath, "-compare"}, &sb); err == nil {
		t.Error("-compare with fault: headers accepted")
	}
}

func TestPredictIBAlias(t *testing.T) {
	var ib, long strings.Builder
	if err := run([]string{"-model", "ib", "-scheme", "s4"}, &ib); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "infiniband", "-scheme", "s4"}, &long); err != nil {
		t.Fatal(err)
	}
	if ib.String() != long.String() {
		t.Error("-model ib should match -model infiniband")
	}
}

// TestPredictShardsFlagRemoved: the simulator has one engine core, so
// -shards is an unknown flag rather than a silently ignored knob.
func TestPredictShardsFlagRemoved(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "gige", "-scheme", "s1", "-shards", "2"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("-shards 2: error %v, want an unknown-flag error", err)
	}
}
