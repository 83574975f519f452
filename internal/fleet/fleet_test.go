package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// fatTree returns the test fabric: two 4-host edge switches behind a
// 4:1 oversubscribed fat-tree core, so one uplink carries exactly one
// host line rate per direction.
func fatTree() topology.Spec {
	return topology.Spec{Kind: topology.FatTree, Switches: 2, HostsPerSwitch: 4, Oversub: 4}
}

// pair builds a scheme of volume-20MB communications from (src, dst)
// rank pairs.
func pairs(t *testing.T, ps ...[2]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i, p := range ps {
		b.Add(fmt.Sprintf("c%d", i), graph.NodeID(p[0]), graph.NodeID(p[1]), 20e6)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCreateGetListDelete(t *testing.T) {
	m := NewManager()
	info, err := m.Create(Spec{Name: "prod", Topo: fatTree()})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hosts != 8 || info.FreeHosts != 8 || info.Model != "gige" || info.RefRate <= 0 {
		t.Fatalf("unexpected info: %+v", info)
	}
	if info.Topology != "fattree 2x4 oversub 4 place block" {
		t.Fatalf("topology = %q", info.Topology)
	}
	if _, err := m.Create(Spec{Name: "edge", Hosts: 4, Model: "ib"}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("edge")
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "infiniband" || got.Topology != "crossbar" || got.Hosts != 4 {
		t.Fatalf("unexpected edge info: %+v", got)
	}
	if l := m.List(); len(l) != 2 || l[0].Name != "prod" || l[1].Name != "edge" {
		t.Fatalf("list = %+v", l)
	}
	if err := m.Delete("prod"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("prod"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := m.Delete("prod"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if l := m.List(); len(l) != 1 || l[0].Name != "edge" {
		t.Fatalf("list after delete = %+v", l)
	}
}

func TestCreateValidation(t *testing.T) {
	m := NewManager()
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty name", Spec{Topo: fatTree()}},
		{"bad name chars", Spec{Name: "Prod!", Topo: fatTree()}},
		{"crossbar without hosts", Spec{Name: "a"}},
		{"host count contradicts fabric", Spec{Name: "a", Topo: fatTree(), Hosts: 9}},
		{"unknown model", Spec{Name: "a", Hosts: 4, Model: "nope"}},
		{"negative ref rate", Spec{Name: "a", Hosts: 4, RefRate: -1}},
		{"invalid topo", Spec{Name: "a", Topo: topology.Spec{Kind: topology.Star, Switches: 1, HostsPerSwitch: 2}}},
		{"too many hosts", Spec{Name: "a", Hosts: MaxHosts + 1}},
	}
	for _, tc := range cases {
		if _, err := m.Create(tc.spec); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := m.Create(Spec{Name: "dup", Hosts: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Spec{Name: "dup", Hosts: 2}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestAddJobOccupancyAndDelete(t *testing.T) {
	m := NewManager()
	if _, err := m.Create(Spec{Name: "c", Topo: fatTree()}); err != nil {
		t.Fatal(err)
	}
	ring := pairs(t, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
	j, err := m.AddJob("c", "ring", ring, "block", 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Tasks != 4 || j.Strategy != "block" || j.Time <= 0 {
		t.Fatalf("unexpected job: %+v", j)
	}
	if want := []int{0, 1, 2, 3}; fmt.Sprint(j.Hosts) != fmt.Sprint(want) {
		t.Fatalf("block hosts = %v, want %v", j.Hosts, want)
	}
	info, _ := m.Get("c")
	if info.FreeHosts != 4 || len(info.Jobs) != 1 {
		t.Fatalf("occupancy: %+v", info)
	}
	// A second 4-task job fits exactly; a third does not.
	if _, err := m.AddJob("c", "ring2", ring, "", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob("c", "ring3", ring, "", 0); !errors.Is(err, ErrCapacity) {
		t.Fatalf("overcommit: %v", err)
	}
	if _, err := m.AddJob("c", "ring2", ring, "", 0); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate job: %v", err)
	}
	if err := m.DeleteJob("c", "ring"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Job("c", "ring"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job after delete: %v", err)
	}
	info, _ = m.Get("c")
	if info.FreeHosts != 4 || len(info.Jobs) != 1 || info.Jobs[0].Name != "ring2" {
		t.Fatalf("occupancy after delete: %+v", info)
	}
	// Freed hosts are reusable.
	if _, err := m.AddJob("c", "ring3", ring, "", 0); err != nil {
		t.Fatal(err)
	}
}

// TestResidentJobsContendOnUplinks: the what-if score must see the
// resident workload. A resident cross-core flow halves the uplink
// bandwidth available to a newcomer that also crosses, so the
// newcomer's predicted time doubles compared to an empty cluster.
func TestResidentJobsContendOnUplinks(t *testing.T) {
	topo := topology.Spec{Kind: topology.FatTree, Switches: 2, HostsPerSwitch: 2, Oversub: 2}
	one := pairs(t, [2]int{0, 1})

	empty := NewManager()
	if _, err := empty.Create(Spec{Name: "c", Topo: topo}); err != nil {
		t.Fatal(err)
	}
	// roundrobin forces rank 0 -> host 0 (switch 0), rank 1 -> host 2
	// (switch 1): a guaranteed core crossing.
	alone, err := empty.AddJob("c", "j", one, "roundrobin", 0)
	if err != nil {
		t.Fatal(err)
	}

	busy := NewManager()
	if _, err := busy.Create(Spec{Name: "c", Topo: topo}); err != nil {
		t.Fatal(err)
	}
	if _, err := busy.AddJob("c", "resident", one, "roundrobin", 0); err != nil {
		t.Fatal(err)
	}
	cands, err := busy.Placements("c", one, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only hosts 1 (switch 0) and 3 (switch 1) are free: every candidate
	// crosses the core alongside the resident flow.
	for _, cand := range cands {
		if cand.CoreCrossings != 1 {
			t.Fatalf("candidate %s: crossings = %d, want 1", cand.Strategy, cand.CoreCrossings)
		}
		if cand.JobTime <= alone.Time {
			t.Errorf("candidate %s: time %g should exceed uncontended %g", cand.Strategy, cand.JobTime, alone.Time)
		}
	}
}

func TestStrategyParsing(t *testing.T) {
	good := []string{"block", "roundrobin", "round-robin", "rr", "greedy", "random", "random:0", "random:15"}
	for _, s := range good {
		if _, _, err := parseStrategy(s); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	bad := []string{"", "best ", "BLOCK", "random:16", "random:-1", "random:x", "pack"}
	for _, s := range bad {
		if _, _, err := parseStrategy(s); err == nil {
			t.Errorf("%s: expected error", s)
		}
	}
}

// TestManagerConcurrentClusterLifecycle hammers create/get/list/delete
// across goroutines; run under -race in CI (make race).
func TestManagerConcurrentClusterLifecycle(t *testing.T) {
	m := NewManager()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("c%d", w)
			for i := 0; i < 20; i++ {
				if _, err := m.Create(Spec{Name: name, Topo: fatTree()}); err != nil && !errors.Is(err, ErrExists) {
					t.Errorf("create: %v", err)
				}
				m.Get(name)
				m.List()
				if err := m.Delete(name); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("delete: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Len(); n != 0 {
		t.Errorf("%d clusters left", n)
	}
}

// TestClusterConcurrentJobsAndPlacements drives one cluster's job
// admission, what-if placements and evictions from many goroutines and
// checks the occupancy invariants afterwards; run under -race in CI.
func TestClusterConcurrentJobsAndPlacements(t *testing.T) {
	m := NewManager()
	if _, err := m.Create(Spec{Name: "c", Topo: topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 4}}); err != nil {
		t.Fatal(err)
	}
	one := pairs(t, [2]int{0, 1})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("j%d", w)
			for i := 0; i < 10; i++ {
				if _, err := m.AddJob("c", name, one, "", 2); err != nil && !errors.Is(err, ErrCapacity) {
					t.Errorf("add: %v", err)
				}
				if _, err := m.Placements("c", one, 1); err != nil && !errors.Is(err, ErrCapacity) {
					t.Errorf("placements: %v", err)
				}
				m.Job("c", name)
				if err := m.DeleteJob("c", name); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("delete: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	info, err := m.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, j := range info.Jobs {
		occupied += j.Tasks
	}
	if info.FreeHosts != info.Hosts-occupied {
		t.Errorf("occupancy out of sync: %+v", info)
	}
}

// TestDeleteClusterRacesJobOps: operations racing a cluster delete with
// a stale pointer must fail with ErrNotFound, never mutate an orphan.
func TestDeleteClusterRacesJobOps(t *testing.T) {
	one := [2]int{0, 1}
	for i := 0; i < 20; i++ {
		m := NewManager()
		if _, err := m.Create(Spec{Name: "c", Hosts: 8}); err != nil {
			t.Fatal(err)
		}
		g := pairs(t, one)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.Delete("c")
		}()
		go func() {
			defer wg.Done()
			if _, err := m.AddJob("c", "j", g, "", 0); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("racing add: %v", err)
			}
		}()
		wg.Wait()
	}
}
