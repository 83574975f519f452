package benchsuite

import (
	"regexp"
	"testing"
)

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, bm := range Suite() {
		if bm.Name == "" || bm.F == nil {
			t.Fatalf("malformed benchmark %+v", bm)
		}
		if seen[bm.Name] {
			t.Fatalf("duplicate benchmark name %q", bm.Name)
		}
		seen[bm.Name] = true
	}
}

func TestRunNoMatch(t *testing.T) {
	got, err := Run(regexp.MustCompile("^no-such$"), nil)
	if err != nil || got != nil {
		t.Fatalf("Run with non-matching filter = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestBenchSchemeShape(t *testing.T) {
	g := randomScheme32()
	if g.Len() != BenchFlowsN {
		t.Fatalf("bench scheme has %d comms, want %d", g.Len(), BenchFlowsN)
	}
	if g.NumNodes() > 16 || g.MaxNode() > 15 {
		t.Fatalf("bench scheme nodes=%d max=%d, want <= 16 nodes with ids < 16", g.NumNodes(), g.MaxNode())
	}
}
