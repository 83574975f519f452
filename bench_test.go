package bwshare

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see the experiment index in README.md), plus
// the EXP-A* ablations and micro-benchmarks of the hot paths. Each
// figure benchmark regenerates the corresponding experiment end to end;
// run `go run ./cmd/bwexperiments` for the rendered tables.

import (
	"testing"

	"bwshare/internal/benchsuite"
	"bwshare/internal/experiments"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/mis"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/schemes"
)

// BenchmarkFig2 regenerates the Figure 2 penalty table: S1..S6 on the
// three substrates.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.Fig2()
		if len(rs) != 6 {
			b.Fatal("want 6 schemes")
		}
	}
}

// BenchmarkFig4 regenerates the Figure 4 calibration verification.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4()
		if len(r.Predicted) != 6 {
			b.Fatal("want 6 communications")
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 state-set enumeration.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig5().Sets) != 5 {
			b.Fatal("want 5 state sets")
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 penalty calculation.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig6().NSets != 5 {
			b.Fatal("want 5 state sets")
		}
	}
}

// BenchmarkFig7 regenerates the MK1/MK2 synthetic accuracy tables.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.Fig7()
		if len(rs) != 2 {
			b.Fatal("want MK1 and MK2")
		}
	}
}

// hplBenchConfig keeps the HPL figures affordable under `go test
// -bench=.`: the full N=20500 run is the cmd/bwexperiments default; the
// benchmark uses a quarter-size problem with identical structure.
func hplBenchConfig() experiments.HPLConfig {
	cfg := experiments.DefaultHPL()
	cfg.N = 9600
	return cfg
}

// BenchmarkFig8 regenerates the GigE-on-HPL evaluation (3 placements,
// measured + predicted replays).
func BenchmarkFig8(b *testing.B) {
	cfg := hplBenchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Schedulings) != 3 {
			b.Fatal("want 3 placements")
		}
	}
}

// BenchmarkFig9 regenerates the Myrinet-on-HPL evaluation.
func BenchmarkFig9(b *testing.B) {
	cfg := hplBenchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Schedulings) != 3 {
			b.Fatal("want 3 placements")
		}
	}
}

// BenchmarkAblationStatic regenerates EXP-A1 (static vs progressive).
func BenchmarkAblationStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.AblationStaticVsProgressive()) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkAblationConflictRule regenerates EXP-A2.
func BenchmarkAblationConflictRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.AblationConflictRule()) != 3 {
			b.Fatal("want 3 variants")
		}
	}
}

// BenchmarkBaselines regenerates EXP-A3 (paper models vs baselines).
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.AblationBaselines()) == 0 {
			b.Fatal("no results")
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkSuite runs the canonical hot-path suite shared with
// cmd/bwbench (optimized vs reference allocators, substrates, EXP-RND
// sweep), so `go test -bench Suite` and the committed BENCH_<n>.json
// snapshots measure the same code.
func BenchmarkSuite(b *testing.B) {
	for _, bm := range benchsuite.Suite() {
		b.Run(bm.Name, bm.F)
	}
}

// BenchmarkPenaltiesGigE measures the degree model on the K5 graph.
func BenchmarkPenaltiesGigE(b *testing.B) {
	g := schemes.MK2(schemes.Fig4Volume)
	m := model.NewGigE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := m.Penalties(g); len(p) != 10 {
			b.Fatal("bad penalties")
		}
	}
}

// BenchmarkPenaltiesMyrinet measures state-set enumeration + penalties
// on the K5 graph (the model's exponential core).
func BenchmarkPenaltiesMyrinet(b *testing.B) {
	g := schemes.MK2(schemes.Fig4Volume)
	m := model.NewMyrinet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := m.Penalties(g); len(p) != 10 {
			b.Fatal("bad penalties")
		}
	}
}

// BenchmarkMISStar16 enumerates maximal independent sets of a 16-vertex
// complete conflict graph - 16 communications out of one NIC, giving 16
// singleton state sets (the many-core worst case of EXP-X1).
func BenchmarkMISStar16(b *testing.B) {
	g := schemes.Star(16, 1e6)
	adj := g.ConflictAdj(graph.SameRole)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(mis.MaximalIndependentSets(adj)); got != 16 {
			b.Fatalf("sets = %d, want 16", got)
		}
	}
}

// BenchmarkMISK5 enumerates the state sets of the oriented complete
// graph K5 (the MK2 workload), a dense but tractable conflict graph.
func BenchmarkMISK5(b *testing.B) {
	g := schemes.Complete(5, 1e6)
	adj := g.ConflictAdj(graph.SameRole)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mis.MaximalIndependentSets(adj)) == 0 {
			b.Fatal("no sets")
		}
	}
}

// BenchmarkMyrinetDES measures the packet-level substrate on scheme S6
// (six 20 MB flows, ~1900 packet events).
func BenchmarkMyrinetDES(b *testing.B) {
	e := myrinet.New(myrinet.DefaultConfig())
	g := schemes.Fig2(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := measure.Run(e, g)
		if len(r.Times) != 6 {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkGigEFluid measures the fluid substrate on scheme S6.
func BenchmarkGigEFluid(b *testing.B) {
	e := gige.New(gige.DefaultConfig())
	g := schemes.Fig2(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := measure.Run(e, g)
		if len(r.Times) != 6 {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkProgressivePredict measures the model-driven engine on MK2.
func BenchmarkProgressivePredict(b *testing.B) {
	g := schemes.MK2(schemes.Fig4Volume)
	m := model.NewMyrinet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tm := predict.Times(g, m, 2e8); len(tm) != 10 {
			b.Fatal("bad times")
		}
	}
}
