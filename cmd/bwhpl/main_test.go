package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAndReplayTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var sb strings.Builder
	if err := run([]string{"-gen", path, "-n", "2400", "-tasks", "8"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote") {
		t.Fatalf("gen output: %s", sb.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-trace", path, "-net", "myrinet", "-sched", "rrp", "-tasks", "8", "-nodes", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mean Eabs", "makespan", "Sm [s]"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q:\n%s", want, sb.String())
		}
	}
}

func TestEvaluateSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "2400", "-tasks", "8", "-nodes", "4", "-net", "gige", "-sched", "random"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "HPL on gige") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-net", "nope", "-n", "2400", "-tasks", "4", "-nodes", "2"},
		{"-sched", "nope", "-n", "2400", "-tasks", "4", "-nodes", "2"},
		{"-trace", "/nonexistent"},
		{"-n", "0"},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestBaselineModelsRejected: the baseline models have no substrate to
// measure against, so -net accepts only the simulated networks.
func TestBaselineModelsRejected(t *testing.T) {
	for _, net := range []string{"kimlee", "linear"} {
		var sb strings.Builder
		err := run([]string{"-net", net, "-n", "2400", "-tasks", "4", "-nodes", "2"}, &sb)
		if err == nil || !strings.Contains(err.Error(), "unknown substrate") {
			t.Errorf("-net %s: error %v, want an unknown-substrate error", net, err)
		}
	}
}
