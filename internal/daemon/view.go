package daemon

import (
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
)

// GridView is GridStatus rendered for JSON: durations in seconds, the
// broker telemetry flattened alongside the grid's operational state.
type GridView struct {
	// Name is the member grid's name.
	Name string `json:"name"`
	// Down reports a full outage in progress.
	Down bool `json:"down"`
	// StorageDown reports the storage dimension dark.
	StorageDown bool `json:"storageDown"`
	// Backlog is the UI backlog (accepted, not yet cleared submissions).
	Backlog int `json:"backlog"`
	// Queued counts jobs in the grid's batch queues.
	Queued int `json:"queued"`
	// BusyNodes and TotalNodes are the worker occupancy.
	BusyNodes int `json:"busyNodes"`
	// TotalNodes is the grid's worker count.
	TotalNodes int `json:"totalNodes"`
	// Dispatched, Observed and Rebrokered are the broker's counters for
	// this grid.
	Dispatched int `json:"dispatched"`
	// Observed counts completed jobs that updated the EWMAs.
	Observed int `json:"observed"`
	// Rebrokered counts jobs moved off this grid after terminal failure.
	Rebrokered int `json:"rebrokered"`
	// SubmitEWMASeconds is the smoothed UI submission overhead.
	SubmitEWMASeconds float64 `json:"submitEwmaSeconds"`
	// QueueEWMASeconds is the smoothed batch-queue wait.
	QueueEWMASeconds float64 `json:"queueEwmaSeconds"`
	// Stretch is the observed/nominal WAN transfer-cost ratio (1 when
	// uncontended or unobserved).
	Stretch float64 `json:"stretch"`
	// RemoteInMB is the input bytes fetched over non-local links,
	// attempts included.
	RemoteInMB float64 `json:"remoteInMB"`
	// WANWaitSeconds is the time spent queued on contended WAN channels,
	// attempts included.
	WANWaitSeconds float64 `json:"wanWaitSeconds"`
	// Restages counts backed-off stage-in retry rounds.
	Restages uint64 `json:"restages"`
}

// SEView is one storage element's statistics rendered for JSON.
type SEView struct {
	// Site is "grid/cluster".
	Site string `json:"site"`
	// CapacityMB is the configured capacity (zero means unlimited).
	CapacityMB float64 `json:"capacityMB"`
	// UsedMB is the resident bytes.
	UsedMB float64 `json:"usedMB"`
	// PeakMB is the highest residency observed.
	PeakMB float64 `json:"peakMB"`
	// Files counts resident replicas.
	Files int `json:"files"`
	// Evictions counts capacity-pressure drains.
	Evictions uint64 `json:"evictions"`
	// EvictedMB totals the bytes evictions freed.
	EvictedMB float64 `json:"evictedMB"`
}

// StatusView is federation.Status rendered for JSON consumers (the
// /snapshot endpoint and state snapshots): durations in seconds, job
// lifecycle counts keyed by status name.
type StatusView struct {
	// VirtualSeconds is the engine's virtual clock.
	VirtualSeconds float64 `json:"virtualSeconds"`
	// Grids holds one view per member grid, in configuration order.
	Grids []GridView `json:"grids"`
	// JobsByStatus counts dispatched attempts by lifecycle state name.
	JobsByStatus map[string]int `json:"jobsByStatus"`
	// Repairs counts landed replica-repair copies.
	Repairs int `json:"repairs"`
	// RepairedMB totals the megabytes those copies moved.
	RepairedMB float64 `json:"repairedMB"`
	// SE holds per-element storage statistics.
	SE []SEView `json:"se,omitempty"`
}

// newGridView flattens a GridStatus for JSON.
func newGridView(gs federation.GridStatus) GridView {
	return GridView{
		Name:              gs.Name,
		Down:              gs.Down,
		StorageDown:       gs.StorageDown,
		Backlog:           gs.Backlog,
		Queued:            gs.Queued,
		BusyNodes:         gs.BusyNodes,
		TotalNodes:        gs.TotalNodes,
		Dispatched:        gs.Telemetry.Dispatched,
		Observed:          gs.Telemetry.Observed,
		Rebrokered:        gs.Telemetry.Rebrokered,
		SubmitEWMASeconds: gs.Telemetry.SubmitEWMA.Seconds(),
		QueueEWMASeconds:  gs.Telemetry.QueueEWMA.Seconds(),
		Stretch:           gs.Telemetry.Stretch(),
		RemoteInMB:        gs.RemoteInMB,
		WANWaitSeconds:    gs.WANWait.Seconds(),
		Restages:          gs.Restages,
	}
}

// newStatusView renders a federation.Status for JSON.
func newStatusView(st federation.Status) StatusView {
	v := StatusView{
		VirtualSeconds: time.Duration(st.Virtual).Seconds(),
		Grids:          make([]GridView, len(st.Grids)),
		JobsByStatus:   make(map[string]int, len(st.JobsByStatus)),
		Repairs:        st.Repairs,
		RepairedMB:     st.RepairedMB,
		SE:             make([]SEView, len(st.SE)),
	}
	for i, gs := range st.Grids {
		v.Grids[i] = newGridView(gs)
	}
	for s, n := range st.JobsByStatus {
		if n > 0 {
			v.JobsByStatus[grid.JobStatus(s).String()] = n
		}
	}
	for i, se := range st.SE {
		v.SE[i] = SEView{
			Site:       se.Site.Grid + "/" + se.Site.Cluster,
			CapacityMB: se.CapacityMB,
			UsedMB:     se.UsedMB,
			PeakMB:     se.PeakMB,
			Files:      se.Files,
			Evictions:  se.Evictions,
			EvictedMB:  se.EvictedMB,
		}
	}
	return v
}
