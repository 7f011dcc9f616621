package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

// SubmitRequest is the /submit request body: one job spec, optionally
// repeated Count times, submitted through the named tenant's brokered
// handle at the paced virtual instant the request is injected.
type SubmitRequest struct {
	// Tenant names the submission handle ("" is the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Name is the job name (a -N suffix is appended when Count > 1).
	Name string `json:"name"`
	// RuntimeSeconds is the job's computation time in virtual seconds,
	// at most maxRuntime.
	RuntimeSeconds float64 `json:"runtimeSeconds"`
	// Inputs are logical file names the job stages in; each must already
	// be registered in the federation catalog.
	Inputs []string `json:"inputs,omitempty"`
	// Outputs declares the files the job registers on completion.
	Outputs []OutputDecl `json:"outputs,omitempty"`
	// Count repeats the spec (default 1).
	Count int `json:"count,omitempty"`
}

// OutputDecl declares one output file in a SubmitRequest.
type OutputDecl struct {
	// Name is the logical file name to register (required).
	Name string `json:"name"`
	// SizeMB is the file's size in megabytes, in [0, maxOutputMB].
	SizeMB float64 `json:"sizeMB"`
}

// Ceilings on what /submit accepts. Far larger values overflow the
// job's compute or stage-out time.Duration into a negative delay, which
// the engine refuses by panicking on the driver goroutine.
const (
	// maxRuntime is the longest job runtime: one virtual year.
	maxRuntime = 365 * 24 * time.Hour
	// maxOutputMB is the largest output file: one terabyte.
	maxOutputMB = 1 << 20
	// maxBodyBytes caps a /submit or /outage request body. A valid body
	// is far smaller; past the cap the request is refused with 413 and
	// the rest of the body is never read.
	maxBodyBytes = 1 << 20
)

// SubmitResponse is the /submit reply: the virtual instant the jobs
// entered the broker and their assigned IDs.
type SubmitResponse struct {
	// VirtualSeconds is the injection instant on the engine's clock.
	VirtualSeconds float64 `json:"virtualSeconds"`
	// IDs are the submitted jobs' record IDs, in submission order.
	IDs []int `json:"ids"`
}

// OutageRequest is the /outage request body: an operator command
// flipping one member grid's availability at the paced virtual instant.
type OutageRequest struct {
	// Grid names the member grid (a federation-resolved name, as listed
	// on /metrics).
	Grid string `json:"grid"`
	// Action is one of "down", "up", "storage-down", "storage-up".
	Action string `json:"action"`
}

// JobView is one job record rendered for the /jobs listing.
type JobView struct {
	// ID is the job's record ID.
	ID int `json:"id"`
	// Tenant is the submission handle the job came through.
	Tenant string `json:"tenant,omitempty"`
	// Grid is the member grid the job last dispatched to.
	Grid string `json:"grid"`
	// Name is the job's spec name.
	Name string `json:"name"`
	// Status is the lifecycle state name.
	Status string `json:"status"`
	// Attempts counts submissions including rebrokered retries.
	Attempts int `json:"attempts"`
	// SubmittedSeconds is the submission instant in virtual seconds.
	SubmittedSeconds float64 `json:"submittedSeconds"`
	// CompletedSeconds is the terminal instant in virtual seconds (zero
	// while in flight).
	CompletedSeconds float64 `json:"completedSeconds,omitempty"`
	// Error is the terminal error text, if any.
	Error string `json:"error,omitempty"`
}

// mux builds the daemon's HTTP front-end. Every handler funnels through
// Daemon.call, so the engine only ever runs handler logic between steps.
func (d *Daemon) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", d.handleHealthz)
	m.HandleFunc("GET /metrics", d.handleMetrics)
	m.HandleFunc("GET /jobs", d.handleJobs)
	m.HandleFunc("GET /snapshot", d.handleSnapshot)
	m.HandleFunc("POST /submit", d.handleSubmit)
	m.HandleFunc("POST /outage", d.handleOutage)
	return m
}

// handleHealthz reports liveness without touching the engine.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-d.stopped:
		http.Error(w, "stopping", http.StatusServiceUnavailable)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
}

// handleMetrics serves live telemetry in the Prometheus text exposition
// format: engine progress, campaign state, per-grid operational gauges
// and broker EWMAs, job lifecycle counts, repair and storage accounting.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var (
		st        federation.Status
		fired     uint64
		pending   int
		injected  uint64
		subs      uint64
		remaining int
	)
	if err := d.call(func() {
		st = d.fed.Status()
		fired = d.eng.Fired()
		pending = d.eng.Pending()
		injected = d.injected
		subs = d.submissions
		remaining = d.exec.Remaining()
	}); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	var b strings.Builder
	metric := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	metric("moteur_virtual_seconds", "Engine virtual clock.", "gauge")
	fmt.Fprintf(&b, "moteur_virtual_seconds %g\n", time.Duration(st.Virtual).Seconds())
	metric("moteur_events_fired_total", "Engine events executed.", "counter")
	fmt.Fprintf(&b, "moteur_events_fired_total %d\n", fired)
	metric("moteur_events_pending", "Engine events scheduled and not yet fired.", "gauge")
	fmt.Fprintf(&b, "moteur_events_pending %d\n", pending)
	metric("moteur_injected_total", "External operations admitted through the injection queue.", "counter")
	fmt.Fprintf(&b, "moteur_injected_total %d\n", injected)
	metric("moteur_submissions_total", "Jobs submitted over HTTP.", "counter")
	fmt.Fprintf(&b, "moteur_submissions_total %d\n", subs)
	metric("moteur_campaign_tenants_remaining", "Boot-campaign tenants not yet terminal.", "gauge")
	fmt.Fprintf(&b, "moteur_campaign_tenants_remaining %d\n", remaining)

	metric("moteur_grid_up", "1 when the member grid is not in a full outage.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_up{grid=%q} %d\n", g.Name, b2i(!g.Down))
	}
	metric("moteur_grid_storage_up", "1 when the member grid's storage dimension is lit.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_storage_up{grid=%q} %d\n", g.Name, b2i(!g.StorageDown))
	}
	metric("moteur_grid_ui_backlog", "Submissions accepted but not yet cleared by the grid UI.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_ui_backlog{grid=%q} %d\n", g.Name, g.Backlog)
	}
	metric("moteur_grid_queued_jobs", "Jobs waiting in the grid's batch queues.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_queued_jobs{grid=%q} %d\n", g.Name, g.Queued)
	}
	metric("moteur_grid_busy_nodes", "Worker nodes currently executing jobs.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_busy_nodes{grid=%q} %d\n", g.Name, g.BusyNodes)
	}
	metric("moteur_grid_total_nodes", "Worker nodes configured.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_total_nodes{grid=%q} %d\n", g.Name, g.TotalNodes)
	}
	metric("moteur_grid_dispatched_total", "Jobs the broker sent to the grid.", "counter")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_dispatched_total{grid=%q} %d\n", g.Name, g.Telemetry.Dispatched)
	}
	metric("moteur_grid_observed_total", "Completed jobs that updated the grid's EWMAs.", "counter")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_observed_total{grid=%q} %d\n", g.Name, g.Telemetry.Observed)
	}
	metric("moteur_grid_rebrokered_total", "Jobs moved off the grid after terminal failure.", "counter")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_rebrokered_total{grid=%q} %d\n", g.Name, g.Telemetry.Rebrokered)
	}
	metric("moteur_grid_submit_ewma_seconds", "Smoothed UI submission overhead.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_submit_ewma_seconds{grid=%q} %g\n", g.Name, g.Telemetry.SubmitEWMA.Seconds())
	}
	metric("moteur_grid_queue_ewma_seconds", "Smoothed batch-queue wait.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_queue_ewma_seconds{grid=%q} %g\n", g.Name, g.Telemetry.QueueEWMA.Seconds())
	}
	metric("moteur_grid_stretch", "Observed/nominal WAN transfer-cost ratio.", "gauge")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_stretch{grid=%q} %g\n", g.Name, g.Telemetry.Stretch())
	}
	metric("moteur_grid_wan_wait_seconds_total", "Time spent queued on contended WAN channels, attempts included.", "counter")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_wan_wait_seconds_total{grid=%q} %g\n", g.Name, g.WANWait.Seconds())
	}
	metric("moteur_grid_remote_in_mb_total", "Input megabytes fetched over non-local links, attempts included.", "counter")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_remote_in_mb_total{grid=%q} %g\n", g.Name, g.RemoteInMB)
	}
	metric("moteur_grid_restages_total", "Backed-off stage-in retry rounds.", "counter")
	for _, g := range st.Grids {
		fmt.Fprintf(&b, "moteur_grid_restages_total{grid=%q} %d\n", g.Name, g.Restages)
	}

	metric("moteur_jobs", "Dispatched job attempts by lifecycle status.", "gauge")
	for s, n := range st.JobsByStatus {
		fmt.Fprintf(&b, "moteur_jobs{status=%q} %d\n", grid.JobStatus(s).String(), n)
	}
	metric("moteur_repairs_total", "Replica-repair copies landed.", "counter")
	fmt.Fprintf(&b, "moteur_repairs_total %d\n", st.Repairs)
	metric("moteur_repaired_mb_total", "Megabytes moved by replica repair.", "counter")
	fmt.Fprintf(&b, "moteur_repaired_mb_total %g\n", st.RepairedMB)
	if len(st.SE) > 0 {
		metric("moteur_se_used_mb", "Resident megabytes per storage element.", "gauge")
		for _, se := range st.SE {
			fmt.Fprintf(&b, "moteur_se_used_mb{site=%q} %g\n", se.Site.Grid+"/"+se.Site.Cluster, se.UsedMB)
		}
		metric("moteur_se_files", "Resident replicas per storage element.", "gauge")
		for _, se := range st.SE {
			fmt.Fprintf(&b, "moteur_se_files{site=%q} %d\n", se.Site.Grid+"/"+se.Site.Cluster, se.Files)
		}
		metric("moteur_se_evictions_total", "Replicas drained under capacity pressure.", "counter")
		for _, se := range st.SE {
			fmt.Fprintf(&b, "moteur_se_evictions_total{site=%q} %d\n", se.Site.Grid+"/"+se.Site.Cluster, se.Evictions)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// handleJobs serves the federation's job records as JSON.
func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	var views []JobView
	if err := d.call(func() {
		recs := d.fed.Records()
		views = make([]JobView, len(recs))
		for i, rec := range recs {
			v := JobView{
				ID:               rec.ID,
				Tenant:           rec.Tenant,
				Grid:             rec.Grid,
				Name:             rec.Spec.Name,
				Status:           rec.Status.String(),
				Attempts:         rec.Attempts,
				SubmittedSeconds: time.Duration(rec.Submitted).Seconds(),
			}
			if rec.Status == grid.StatusCompleted || rec.Status == grid.StatusFailed {
				v.CompletedSeconds = time.Duration(rec.Completed).Seconds()
			}
			if rec.Err != nil {
				v.Error = rec.Err.Error()
			}
			views[i] = v
		}
	}); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, views)
}

// handleSnapshot serves the current state snapshot as JSON (without
// persisting it; the snapshot sequence number is not consumed).
func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var snap Snapshot
	if err := d.call(func() {
		snap = d.snapshot(false)
		d.snapSeq-- // a read, not a persisted snapshot
		snap.Seq = d.snapSeq + 1
	}); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, snap)
}

// handleSubmit accepts an external job submission and injects it into
// the running world at the current paced virtual instant.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		http.Error(w, "bad request: name is required", http.StatusBadRequest)
		return
	}
	if req.RuntimeSeconds < 0 || req.RuntimeSeconds > maxRuntime.Seconds() {
		http.Error(w, fmt.Sprintf("bad request: runtimeSeconds must be in [0, %g]", maxRuntime.Seconds()), http.StatusBadRequest)
		return
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	if count > 100000 {
		http.Error(w, "bad request: count too large", http.StatusBadRequest)
		return
	}
	outs := make([]grid.FileDecl, len(req.Outputs))
	for i, o := range req.Outputs {
		if o.Name == "" || o.SizeMB < 0 || o.SizeMB > maxOutputMB {
			http.Error(w, fmt.Sprintf("bad request: every output needs a name and a sizeMB in [0, %d]", maxOutputMB), http.StatusBadRequest)
			return
		}
		outs[i] = grid.FileDecl{Name: o.Name, SizeMB: o.SizeMB}
	}
	var resp SubmitResponse
	var missing string
	if err := d.call(func() {
		cat := d.fed.Catalog()
		for _, in := range req.Inputs {
			if !cat.Has(in) {
				missing = in
				return
			}
		}
		resp.VirtualSeconds = time.Duration(d.eng.Now()).Seconds()
		ten := d.fed.Tenant(req.Tenant)
		for i := 0; i < count; i++ {
			spec := grid.JobSpec{
				Name:    req.Name,
				Inputs:  req.Inputs,
				Outputs: outs,
				Runtime: time.Duration(req.RuntimeSeconds * float64(time.Second)),
			}
			if count > 1 {
				spec.Name = fmt.Sprintf("%s-%d", req.Name, i)
			}
			rec := ten.Submit(spec, func(*grid.JobRecord) {})
			resp.IDs = append(resp.IDs, rec.ID)
			d.submissions++
		}
	}); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if missing != "" {
		http.Error(w, fmt.Sprintf("bad request: input %q is not in the catalog", missing), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

// handleOutage injects an operator availability command for one member
// grid.
func (d *Daemon) handleOutage(w http.ResponseWriter, r *http.Request) {
	var req OutageRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var apply func(*federation.Federation, int)
	switch req.Action {
	case "down":
		apply = (*federation.Federation).SetDown
	case "up":
		apply = (*federation.Federation).SetUp
	case "storage-down":
		apply = (*federation.Federation).SetStorageDown
	case "storage-up":
		apply = (*federation.Federation).SetStorageUp
	default:
		http.Error(w, "bad request: action must be down, up, storage-down or storage-up", http.StatusBadRequest)
		return
	}
	found := false
	var at sim.Time
	if err := d.call(func() {
		for i := 0; i < d.fed.Size(); i++ {
			if d.fed.GridName(i) == req.Grid {
				apply(d.fed, i)
				found = true
				at = d.eng.Now()
				return
			}
		}
	}); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if !found {
		http.Error(w, fmt.Sprintf("bad request: unknown grid %q", req.Grid), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{
		"grid":           req.Grid,
		"action":         req.Action,
		"virtualSeconds": time.Duration(at).Seconds(),
	})
}

// decodeBody decodes the JSON request body into v, reading at most
// maxBodyBytes. It answers 413 for an oversize body and 400 for a
// malformed one, reporting whether the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	return false
}

// writeJSON serializes v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// b2i renders a boolean as a 0/1 metric value.
func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
