// HTTP handlers for the stateful cluster manager: CRUD over named
// clusters and their resident jobs, plus the placement-ranking
// endpoint. All state lives in internal/fleet; this file only
// translates JSON (the DTOs live in internal/api) to fleet calls and
// fleet errors to status codes (statusFor).
package server

import (
	"fmt"
	"net/http"

	"bwshare/internal/api"
	"bwshare/internal/fleet"
	"bwshare/internal/graph"
)

// clusterDoc is the JSON form of a fleet.Info snapshot.
type clusterDoc struct {
	Name      string  `json:"name"`
	Topology  string  `json:"topology"`
	Model     string  `json:"model"`
	RefRate   float64 `json:"ref_rate_bytes_per_s"`
	Hosts     int     `json:"hosts"`
	FreeHosts int     `json:"free_hosts"`
	// Faults renders the schedule in the schemelang fault: grammar;
	// omitted for healthy clusters (keeps historical documents stable).
	Faults []string `json:"faults,omitempty"`
	Jobs   []jobDoc `json:"jobs"`
}

// jobDoc is the JSON form of a fleet.JobInfo snapshot. Hosts[r] is the
// cluster host of task rank r.
type jobDoc struct {
	Name          string  `json:"name"`
	Comms         int     `json:"comms"`
	Tasks         int     `json:"tasks"`
	Hosts         []int   `json:"hosts"`
	Strategy      string  `json:"strategy"`
	PredictedTime float64 `json:"predicted_time_s"`
}

// candidateDoc is the JSON form of one scored placement candidate.
type candidateDoc struct {
	Strategy      string  `json:"strategy"`
	Hosts         []int   `json:"hosts"`
	JobTime       float64 `json:"job_time_s"`
	ClusterTime   float64 `json:"cluster_time_s"`
	CoreCrossings int     `json:"core_crossings"`
}

func buildClusterDoc(info fleet.Info) clusterDoc {
	jobs := make([]jobDoc, len(info.Jobs))
	for i, j := range info.Jobs {
		jobs[i] = buildJobDoc(j)
	}
	return clusterDoc{
		Name:      info.Name,
		Topology:  info.Topology,
		Model:     info.Model,
		RefRate:   info.RefRate,
		Hosts:     info.Hosts,
		FreeHosts: info.FreeHosts,
		Faults:    info.Faults,
		Jobs:      jobs,
	}
}

func buildJobDoc(j fleet.JobInfo) jobDoc {
	return jobDoc{
		Name:          j.Name,
		Comms:         j.Comms,
		Tasks:         j.Tasks,
		Hosts:         j.Hosts,
		Strategy:      j.Strategy,
		PredictedTime: j.Time,
	}
}

func buildCandidateDocs(cands []fleet.Candidate) []candidateDoc {
	out := make([]candidateDoc, len(cands))
	for i, c := range cands {
		hosts := make([]int, len(c.Hosts))
		for r, h := range c.Hosts {
			hosts[r] = int(h)
		}
		out[i] = candidateDoc{
			Strategy:      c.Strategy,
			Hosts:         hosts,
			JobTime:       c.JobTime,
			ClusterTime:   c.ClusterTime,
			CoreCrossings: c.CoreCrossings,
		}
	}
	return out
}

// decodeBody decodes a bounded JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := api.DecodeBody(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// resolveJobScheme builds the job's communication scheme from exactly
// one of the three forms, with the same size limits as /v1/predict. The
// cluster owns the fabric and its fault schedule, so scheme text
// declaring its own topology or faults is rejected.
func resolveJobScheme(catalog, scheme string, comms []api.CommRequest) (*graph.Graph, error) {
	g, topo, sched, err := api.ResolveGraphForm(api.PredictRequest{Name: catalog, Scheme: scheme, Comms: comms})
	if err != nil {
		return nil, fmt.Errorf("exactly one of catalog, scheme or comms must give the job's communications: %v", err)
	}
	if !topo.Trivial() {
		return nil, fmt.Errorf("scheme text declares topology %q, but the cluster already owns the fabric", topo)
	}
	if !sched.Empty() {
		return nil, fmt.Errorf("scheme text declares fault: headers, but the cluster already owns the fault schedule")
	}
	if g.Len() > api.MaxComms {
		return nil, fmt.Errorf("scheme has %d communications, limit %d", g.Len(), api.MaxComms)
	}
	if g.MaxNode() >= api.MaxNodeID {
		return nil, fmt.Errorf("task rank %d exceeds limit %d", g.MaxNode(), api.MaxNodeID-1)
	}
	return g, nil
}

// checkSeeds validates the optional seeded-random candidate count.
func checkSeeds(seeds int) error {
	if seeds < 0 || seeds > fleet.MaxSeeds {
		return fmt.Errorf("seeds must be in 0..%d, got %d", fleet.MaxSeeds, seeds)
	}
	return nil
}

func (s *Server) handleClusterCreate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req api.ClusterRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	topo, err := req.Topology.Spec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sched, err := api.BuildSchedule(req.Faults)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	info, err := s.clusters.Create(fleet.Spec{
		Name:    req.Name,
		Topo:    topo,
		Hosts:   req.Hosts,
		Model:   req.Model,
		RefRate: req.RefRate,
		Faults:  sched,
	})
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusCreated, buildClusterDoc(info))
}

func (s *Server) handleClusterList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	infos := s.clusters.List()
	out := make([]clusterDoc, len(infos))
	for i, info := range infos {
		out[i] = buildClusterDoc(info)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"clusters": out})
}

func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	info, err := s.clusters.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, buildClusterDoc(info))
}

func (s *Server) handleClusterDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	name := r.PathValue("name")
	if err := s.clusters.Delete(name); err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req api.JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, err := resolveJobScheme(req.Catalog, req.Scheme, req.Comms)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := checkSeeds(req.Seeds); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.clusters.AddJob(r.PathValue("name"), req.Name, g, req.Strategy, req.Seeds)
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusCreated, buildJobDoc(j))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	info, err := s.clusters.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	jobs := make([]jobDoc, len(info.Jobs))
	for i, j := range info.Jobs {
		jobs[i] = buildJobDoc(j)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	j, err := s.clusters.Job(r.PathValue("name"), r.PathValue("job"))
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, buildJobDoc(j))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	cluster, job := r.PathValue("name"), r.PathValue("job")
	if err := s.clusters.DeleteJob(cluster, job); err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": job, "cluster": cluster})
}

func (s *Server) handlePlacements(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req api.PlacementsRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, err := resolveJobScheme(req.Catalog, req.Scheme, req.Comms)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := checkSeeds(req.Seeds); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	name := r.PathValue("name")
	cands, err := s.clusters.Placements(name, g, req.Seeds)
	if err != nil {
		s.writeError(w, statusFor(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"cluster":    name,
		"candidates": buildCandidateDocs(cands),
	})
}
