package replay

import (
	"math"
	"testing"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/graph"
	"bwshare/internal/netsim"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// shardedSubstrates builds the same substrate at a given shard count;
// the replay differential below demands bit-identical results across
// sharded counts and rounding-level agreement with the sequential
// engine (shards <= 1 builds the substrate's own eager core, whose
// float grouping differs from the component-lazy core by ulps on
// multi-component workloads — see netsim's cross-core differential).
// Sharded engines run one incremental allocator per shard on the
// substrate's coupled configuration.
var shardedSubstrates = []struct {
	name string
	make func(topo topology.Spec, shards int) core.Engine
}{
	{"gige", func(topo topology.Spec, shards int) core.Engine {
		cfg := gige.DefaultConfig()
		cfg.Topo = topo
		if shards <= 1 {
			return gige.New(cfg)
		}
		return shardedEngine("gige", cfg.Beta*cfg.LineRate, cfg.Coupled(), shards)
	}},
	{"infiniband", func(topo topology.Spec, shards int) core.Engine {
		cfg := infiniband.DefaultConfig()
		cfg.Topo = topo
		if shards <= 1 {
			return infiniband.New(cfg)
		}
		return shardedEngine("infiniband", cfg.BetaIB*cfg.LineRate, cfg.Coupled(), shards)
	}},
}

// shardedEngine builds a sharded fluid engine with one
// IncrementalAllocator on ccfg per shard.
func shardedEngine(name string, ref float64, ccfg netsim.CoupledConfig, shards int) core.Engine {
	return netsim.NewShardedFluidEngine(name, ref, shards,
		func() netsim.Allocator { return &netsim.IncrementalAllocator{Cfg: ccfg} })
}

// TestShardedReplayBitIdentical replays composed multi-application
// workloads — whose applications form independent constraint
// components, the case the sharded engine distributes — over substrate
// engines at 1, 2 and 8 shards. Results at 4 and 8 shards must be
// bit-identical to 2 shards (the sharded core's determinism contract
// must survive the rendezvous/barrier co-simulation on top of it);
// results at 1 shard (the sequential eager engine) must agree to
// within float rounding, with identical transfer counts.
func TestShardedReplayBitIdentical(t *testing.T) {
	cfg := randgen.DefaultTraceConfig()
	cfg.MinTasks, cfg.MaxTasks = 4, 6
	cfg.Rounds = 6
	for _, seed := range []int64{7, 19, 23} {
		wl, err := randgen.WorkloadFromSeed(seed, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := wl.NumTasks()
		clu := cluster.Default(n)
		place := make(cluster.Placement, n)
		for i := range place {
			place[i] = graph.NodeID(i)
		}
		topos := []topology.Spec{
			{},
			{Kind: topology.Star, Switches: (n + 3) / 4, HostsPerSwitch: 4, Place: topology.Block},
		}
		for _, topo := range topos {
			for _, sub := range shardedSubstrates {
				base, err := Run(sub.make(topo, 2), clu, place, wl)
				if err != nil {
					t.Fatalf("seed %d %s shards=2: %v", seed, sub.name, err)
				}
				for _, k := range []int{4, 8} {
					got, err := Run(sub.make(topo, k), clu, place, wl)
					if err != nil {
						t.Fatalf("seed %d %s shards=%d: %v", seed, sub.name, k, err)
					}
					compareResults(t, seed, sub.name, k, base, got)
				}
				seq, err := Run(sub.make(topo, 1), clu, place, wl)
				if err != nil {
					t.Fatalf("seed %d %s shards=1: %v", seed, sub.name, err)
				}
				compareSeqResults(t, seed, sub.name, base, seq)
			}
		}
	}
}

// compareResults demands bit-exact equality between two sharded runs.
func compareResults(t *testing.T, seed int64, sub string, k int, want, got *Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("seed %d %s shards=%d: makespan %.17g != %.17g", seed, sub, k, got.Makespan, want.Makespan)
	}
	if got.NetTransfers != want.NetTransfers || got.LocalTransfers != want.LocalTransfers {
		t.Fatalf("seed %d %s shards=%d: transfers %d/%d != %d/%d",
			seed, sub, k, got.NetTransfers, got.LocalTransfers, want.NetTransfers, want.LocalTransfers)
	}
	for i := range want.Tasks {
		w, g := want.Tasks[i], got.Tasks[i]
		if g != w {
			t.Fatalf("seed %d %s shards=%d task %d: %+v != %+v", seed, sub, k, i, g, w)
		}
	}
}

// seqReplayTol bounds the sharded-vs-sequential divergence: purely the
// float-rounding grouping difference between the eager and lazy cores.
const seqReplayTol = 1e-9

func compareSeqResults(t *testing.T, seed int64, sub string, sharded, seq *Result) {
	t.Helper()
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= seqReplayTol*math.Max(1, math.Abs(b))
	}
	if !close(sharded.Makespan, seq.Makespan) {
		t.Fatalf("seed %d %s sharded vs sequential: makespan diverged beyond rounding: %.17g vs %.17g",
			seed, sub, sharded.Makespan, seq.Makespan)
	}
	if sharded.NetTransfers != seq.NetTransfers || sharded.LocalTransfers != seq.LocalTransfers {
		t.Fatalf("seed %d %s sharded vs sequential: transfers %d/%d != %d/%d",
			seed, sub, sharded.NetTransfers, sharded.LocalTransfers, seq.NetTransfers, seq.LocalTransfers)
	}
	for i := range seq.Tasks {
		w, g := seq.Tasks[i], sharded.Tasks[i]
		if g.Rank != w.Rank || !close(g.Finish, w.Finish) ||
			!close(g.SendTime, w.SendTime) || !close(g.RecvTime, w.RecvTime) {
			t.Fatalf("seed %d %s sharded vs sequential task %d: %+v vs %+v", seed, sub, i, g, w)
		}
	}
}
