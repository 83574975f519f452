// Package fleet manages long-lived, named clusters and the jobs placed
// on them: the stateful half of the bwserved service.
//
// A Cluster pairs a fabric (topology.Spec plus a host count) with a
// persistent simulator session for one penalty model. Jobs are admitted
// one task per host; the placement engine (placement.go) answers "where
// should this job land?" by enumerating candidate task-to-host mappings
// and scoring each with a what-if simulation of the cluster's entire
// resident workload plus the newcomer.
//
// # Concurrency
//
// The existing bwserved worker-pool model (each request borrows a
// worker, no shared mutable state) does not cover clusters, whose whole
// point is state that outlives requests. The locking here is two-level
// and explicitly ordered:
//
//   - Manager.mu (RWMutex) guards only the name -> *Cluster map and the
//     creation-order list. It is never held while simulating.
//   - Cluster.mu (Mutex) serializes every access to one cluster's
//     mutable state — jobs, host occupancy, and the predict.Session,
//     which reuses scratch buffers and is not safe for concurrent use.
//
// Lock order is Manager.mu before Cluster.mu, and Manager.mu is
// released before any simulation runs, so a slow what-if on one cluster
// never blocks requests to other clusters. Deletion removes the cluster
// from the map under Manager.mu, then marks it dead under its own lock;
// operations that raced the delete and still hold the stale pointer
// observe the mark and fail with ErrNotFound instead of mutating an
// orphan. These invariants are exercised under the race detector by
// TestManagerConcurrentClusterLifecycle and
// TestClusterConcurrentJobsAndPlacements.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/topology"
)

// Sentinel errors. The HTTP layer maps ErrNotFound to 404, ErrExists
// and ErrCapacity to 409, ErrInternal to 500, and everything else
// (validation) to 400.
var (
	ErrNotFound = errors.New("not found")
	ErrExists   = errors.New("already exists")
	ErrCapacity = errors.New("insufficient capacity")
	// ErrInternal marks failures of the simulator itself (a recovered
	// engine panic during what-if scoring), as opposed to a rejected
	// request.
	ErrInternal = errors.New("internal simulation failure")
)

// Service limits, far above any scheme the prediction limits admit.
const (
	// MaxClusters bounds how many clusters one Manager holds.
	MaxClusters = 64
	// MaxJobs bounds the resident jobs per cluster.
	MaxJobs = 256
	// MaxHosts bounds the hosts of one cluster (explicit for crossbar
	// clusters; multi-switch fabrics are already bounded by the
	// topology package's own limits).
	MaxHosts = 1 << 12
	// MaxNameLen bounds cluster and job names.
	MaxNameLen = 63
)

// Spec describes a cluster to create.
type Spec struct {
	// Name identifies the cluster ([a-z0-9-], 1..MaxNameLen chars).
	Name string
	// Topo is the fabric. The zero Spec (crossbar) needs an explicit
	// Hosts count; multi-switch fabrics derive it.
	Topo topology.Spec
	// Hosts is the host count for crossbar fabrics. For star/fattree it
	// must be zero or equal to Topo.Hosts().
	Hosts int
	// Model is a predict model registry name (default "gige").
	Model string
	// RefRate overrides the substrate reference rate (0 = default).
	RefRate float64
	// Faults degrades the cluster's fabric for its whole lifetime: every
	// admission and placement what-if is scored under this schedule, so
	// the ranking reflects how each candidate weathers the degradation.
	// Empty means healthy. Permanent zero-capacity faults are rejected
	// (no job behind a dead link would ever finish).
	Faults fault.Schedule
}

// Manager owns the named clusters. Create one with NewManager; it is
// safe for concurrent use.
type Manager struct {
	mu       sync.RWMutex
	clusters map[string]*Cluster
	order    []string
}

// NewManager returns an empty cluster manager.
func NewManager() *Manager {
	return &Manager{clusters: make(map[string]*Cluster)}
}

// Cluster is one named cluster: a fabric, a persistent simulator
// session, and the jobs resident on it. All fields after the
// constructor are guarded by mu.
type Cluster struct {
	mu      sync.Mutex
	deleted bool

	name    string
	topo    topology.Spec
	hosts   int
	model   string // canonical model name
	ref     float64
	faults  fault.Schedule
	sess    *predict.Session
	jobs    map[string]*job
	order   []string                // job admission order
	hostJob map[graph.NodeID]string // occupied host -> job name
}

// job is the resident state of one admitted job.
type job struct {
	name     string
	scheme   *graph.Graph   // over task ranks
	hosts    []graph.NodeID // rank -> host
	strategy string         // candidate strategy that placed it
	time     float64        // predicted completion at admission
}

// Info is a point-in-time snapshot of one cluster, safe to use after
// the locks are released.
type Info struct {
	Name      string
	Topology  string // canonical topology.Spec string
	Model     string
	RefRate   float64
	Hosts     int
	FreeHosts int
	// Faults renders the cluster's fault schedule, one event per entry
	// in the schemelang `fault:` payload grammar; nil means healthy.
	Faults []string
	Jobs   []JobInfo
}

// JobInfo is a snapshot of one resident job.
type JobInfo struct {
	Name     string
	Comms    int
	Tasks    int
	Hosts    []int // rank -> host
	Strategy string
	Time     float64 // predicted completion time at admission, seconds
}

// validName enforces the DNS-label-like cluster and job name syntax.
func validName(s string) error {
	if len(s) == 0 || len(s) > MaxNameLen {
		return fmt.Errorf("fleet: name must be 1..%d characters, got %d", MaxNameLen, len(s))
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return fmt.Errorf("fleet: invalid name %q (want lowercase letters, digits and dashes)", s)
	}
	return nil
}

// Create validates the spec and registers a new cluster.
func (m *Manager) Create(spec Spec) (Info, error) {
	if err := validName(spec.Name); err != nil {
		return Info{}, err
	}
	if err := spec.Topo.Validate(); err != nil {
		return Info{}, err
	}
	hosts := spec.Hosts
	if spec.Topo.Trivial() {
		if hosts <= 0 {
			return Info{}, fmt.Errorf("fleet: a %s cluster needs an explicit host count > 0", spec.Topo)
		}
	} else {
		if hosts == 0 {
			hosts = spec.Topo.Hosts()
		} else if hosts != spec.Topo.Hosts() {
			return Info{}, fmt.Errorf("fleet: host count %d contradicts fabric %q with %d hosts", hosts, spec.Topo, spec.Topo.Hosts())
		}
	}
	if hosts > MaxHosts {
		return Info{}, fmt.Errorf("fleet: %d hosts exceeds limit %d", hosts, MaxHosts)
	}
	name := spec.Model
	if name == "" {
		name = "gige"
	}
	model, sub, err := predict.LookupModel(name)
	if err != nil {
		return Info{}, err
	}
	if name == "ib" {
		name = "infiniband"
	}
	if !core.ValidRefRate(spec.RefRate) {
		return Info{}, fmt.Errorf("fleet: ref_rate must be a positive finite rate in bytes/second, got %g", spec.RefRate)
	}
	ref := spec.RefRate
	if ref == 0 {
		ref = sub.RefRate()
	}
	if !spec.Faults.Empty() {
		// A crossbar fabric reports no host bound of its own, but the
		// cluster has one: a fault on a host outside it would silently
		// never matter.
		for _, e := range spec.Faults.Events {
			if e.Kind == fault.HostSlow && e.Target >= hosts {
				return Info{}, fmt.Errorf("fleet: fault (%s): host %d does not exist (%d hosts)", e, e.Target, hosts)
			}
		}
	}
	sess, err := predict.New(predict.Spec{Model: model, Ref: ref, Topo: spec.Topo, Faults: spec.Faults})
	if err != nil {
		return Info{}, fmt.Errorf("fleet: %v", err)
	}
	c := &Cluster{
		name:    spec.Name,
		topo:    spec.Topo,
		hosts:   hosts,
		model:   name,
		ref:     ref,
		faults:  spec.Faults.Clone(),
		sess:    sess,
		jobs:    make(map[string]*job),
		hostJob: make(map[graph.NodeID]string),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.clusters[spec.Name]; ok {
		return Info{}, fmt.Errorf("fleet: cluster %q: %w", spec.Name, ErrExists)
	}
	if len(m.clusters) >= MaxClusters {
		return Info{}, fmt.Errorf("fleet: %d clusters resident: %w", len(m.clusters), ErrCapacity)
	}
	m.clusters[spec.Name] = c
	m.order = append(m.order, spec.Name)
	// No other goroutine can hold c yet, so reading it without c.mu is
	// race-free here.
	return c.snapshotLocked(), nil
}

// lookup fetches the cluster pointer under the manager read lock.
func (m *Manager) lookup(name string) (*Cluster, error) {
	m.mu.RLock()
	c := m.clusters[name]
	m.mu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("fleet: cluster %q: %w", name, ErrNotFound)
	}
	return c, nil
}

// Get snapshots one cluster.
func (m *Manager) Get(name string) (Info, error) {
	c, err := m.lookup(name)
	if err != nil {
		return Info{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted {
		return Info{}, fmt.Errorf("fleet: cluster %q: %w", name, ErrNotFound)
	}
	return c.snapshotLocked(), nil
}

// List snapshots every cluster in creation order.
func (m *Manager) List() []Info {
	m.mu.RLock()
	cs := make([]*Cluster, 0, len(m.order))
	for _, name := range m.order {
		cs = append(cs, m.clusters[name])
	}
	m.mu.RUnlock()
	out := make([]Info, 0, len(cs))
	for _, c := range cs {
		c.mu.Lock()
		if !c.deleted {
			out = append(out, c.snapshotLocked())
		}
		c.mu.Unlock()
	}
	return out
}

// Len returns the resident cluster count.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.clusters)
}

// Delete removes a cluster and marks it dead for any operation that
// raced the removal with a stale pointer.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	c := m.clusters[name]
	if c == nil {
		m.mu.Unlock()
		return fmt.Errorf("fleet: cluster %q: %w", name, ErrNotFound)
	}
	delete(m.clusters, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	c.mu.Lock()
	c.deleted = true
	c.mu.Unlock()
	return nil
}

// snapshotLocked builds an Info; c.mu must be held.
func (c *Cluster) snapshotLocked() Info {
	info := Info{
		Name:      c.name,
		Topology:  c.topo.String(),
		Model:     c.model,
		RefRate:   c.ref,
		Hosts:     c.hosts,
		FreeHosts: c.hosts - len(c.hostJob),
		Jobs:      make([]JobInfo, 0, len(c.order)),
	}
	if !c.faults.Empty() {
		info.Faults = make([]string, len(c.faults.Events))
		for i, e := range c.faults.Events {
			info.Faults[i] = e.String()
		}
	}
	for _, name := range c.order {
		info.Jobs = append(info.Jobs, c.jobs[name].info())
	}
	return info
}

func (j *job) info() JobInfo {
	hosts := make([]int, len(j.hosts))
	for i, h := range j.hosts {
		hosts[i] = int(h)
	}
	return JobInfo{
		Name:     j.name,
		Comms:    j.scheme.Len(),
		Tasks:    len(j.hosts),
		Hosts:    hosts,
		Strategy: j.strategy,
		Time:     j.time,
	}
}

// AddJob admits a job: the scheme's task ranks (node ids) are mapped
// one-per-host onto free hosts by the named candidate strategy, or by
// the best-scoring candidate when strategy is "" or "best". The
// returned JobInfo carries the chosen placement and its predicted
// completion time under the cluster's current occupancy.
func (m *Manager) AddJob(cluster, jobName string, scheme *graph.Graph, strategy string, seeds int) (JobInfo, error) {
	if err := validName(jobName); err != nil {
		return JobInfo{}, err
	}
	if scheme == nil || scheme.Len() == 0 {
		return JobInfo{}, fmt.Errorf("fleet: job %q has no communications", jobName)
	}
	c, err := m.lookup(cluster)
	if err != nil {
		return JobInfo{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted {
		return JobInfo{}, fmt.Errorf("fleet: cluster %q: %w", cluster, ErrNotFound)
	}
	if _, ok := c.jobs[jobName]; ok {
		return JobInfo{}, fmt.Errorf("fleet: job %q: %w", jobName, ErrExists)
	}
	if len(c.jobs) >= MaxJobs {
		return JobInfo{}, fmt.Errorf("fleet: %d jobs resident: %w", len(c.jobs), ErrCapacity)
	}
	var cands []Candidate
	if strategy == "" || strategy == "best" {
		cands, err = c.candidatesLocked(scheme, seeds)
	} else {
		cands, err = c.candidatesForLocked(scheme, []string{strategy})
	}
	if err != nil {
		return JobInfo{}, err
	}
	best := cands[0]
	j := &job{
		name:     jobName,
		scheme:   scheme,
		hosts:    best.Hosts,
		strategy: best.Strategy,
		time:     best.JobTime,
	}
	c.jobs[jobName] = j
	c.order = append(c.order, jobName)
	for _, h := range j.hosts {
		c.hostJob[h] = jobName
	}
	return j.info(), nil
}

// Job snapshots one resident job.
func (m *Manager) Job(cluster, jobName string) (JobInfo, error) {
	c, err := m.lookup(cluster)
	if err != nil {
		return JobInfo{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted {
		return JobInfo{}, fmt.Errorf("fleet: cluster %q: %w", cluster, ErrNotFound)
	}
	j := c.jobs[jobName]
	if j == nil {
		return JobInfo{}, fmt.Errorf("fleet: job %q: %w", jobName, ErrNotFound)
	}
	return j.info(), nil
}

// DeleteJob evicts a job and frees its hosts.
func (m *Manager) DeleteJob(cluster, jobName string) error {
	c, err := m.lookup(cluster)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted {
		return fmt.Errorf("fleet: cluster %q: %w", cluster, ErrNotFound)
	}
	j := c.jobs[jobName]
	if j == nil {
		return fmt.Errorf("fleet: job %q: %w", jobName, ErrNotFound)
	}
	delete(c.jobs, jobName)
	for i, n := range c.order {
		if n == jobName {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for _, h := range j.hosts {
		delete(c.hostJob, h)
	}
	return nil
}

// placementsScoredHook, when non-nil, runs after Placements releases
// the cluster lock and before it confirms the cluster still exists.
// Test-only: it opens the scoring/confirmation window deterministically
// so the delete race is exercised without timing luck.
var placementsScoredHook func()

// Placements enumerates and scores candidate placements for a scheme
// without admitting it. seeds adds that many extra seeded-random
// candidates beyond block, roundrobin and greedy (clamped to
// [0, MaxSeeds]). Candidates are returned best first: ascending
// predicted completion time of the new job, ties broken by strategy
// name.
//
// Scoring runs under the cluster lock, but Delete removes the cluster
// from the manager's map *before* it can mark the cluster dead (it
// blocks on that same lock), so an in-flight enumeration could finish
// against a cluster that no longer resolves by name. The result is
// therefore confirmed after scoring: if the name no longer maps to this
// same cluster — deleted, or deleted and recreated with a different
// fabric — the ranking is for a dead cluster and the caller gets
// ErrNotFound, never a plausible-looking answer.
func (m *Manager) Placements(cluster string, scheme *graph.Graph, seeds int) ([]Candidate, error) {
	if scheme == nil || scheme.Len() == 0 {
		return nil, fmt.Errorf("fleet: placement needs a scheme with at least one communication")
	}
	c, err := m.lookup(cluster)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.deleted {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: cluster %q: %w", cluster, ErrNotFound)
	}
	cands, err := c.candidatesLocked(scheme, seeds)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if placementsScoredHook != nil {
		placementsScoredHook()
	}
	m.mu.RLock()
	alive := m.clusters[cluster] == c
	m.mu.RUnlock()
	if !alive {
		return nil, fmt.Errorf("fleet: cluster %q deleted during placement: %w", cluster, ErrNotFound)
	}
	return cands, nil
}

// sortCandidates orders candidates best first, deterministically.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].JobTime != cands[j].JobTime {
			return cands[i].JobTime < cands[j].JobTime
		}
		return cands[i].Strategy < cands[j].Strategy
	})
}
