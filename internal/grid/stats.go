package grid

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// OverheadStats summarizes the grid overhead (submission to start of
// computation) across completed jobs — the quantity the paper reports as
// "around 10 minutes, ± 5 minutes" on EGEE.
type OverheadStats struct {
	Jobs      int
	Mean      time.Duration
	SD        time.Duration
	Min, Max  time.Duration
	P50, P90  time.Duration
	Resubmits int // attempts beyond the first, across terminal jobs
	Failed    int // jobs that ended in StatusFailed
}

// Overheads computes overhead statistics over all completed jobs.
// Resubmits and Failed only count terminal (completed or failed) jobs:
// in-flight records are still mutating and their attempts are not yet
// attributable.
func (g *Grid) Overheads() OverheadStats {
	return OverheadsOf(g.records)
}

// OverheadsOf computes overhead statistics over an arbitrary record slice.
// It is the aggregation hook for callers that assemble record sets across
// grids — a federation's global and per-tenant views — with exactly the
// semantics of Grid.Overheads. Percentiles use the upper nearest-rank
// convention: P50 is durs[n/2] and P90 is durs[n*9/10] of the sorted
// overheads, so on tiny samples they degenerate towards Max (n=1: both
// equal the single observation; n=2: both equal the larger one).
func OverheadsOf(records []*JobRecord) OverheadStats {
	var durs []time.Duration
	st := OverheadStats{}
	for _, r := range records {
		switch r.Status {
		case StatusCompleted:
			st.Resubmits += r.Attempts - 1
			durs = append(durs, r.Overhead())
		case StatusFailed:
			st.Resubmits += r.Attempts - 1
			st.Failed++
		}
	}
	st.Jobs = len(durs)
	if st.Jobs == 0 {
		return st
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var sum, sum2 float64
	for _, d := range durs {
		f := d.Seconds()
		sum += f
		sum2 += f * f
	}
	mean := sum / float64(st.Jobs)
	varr := sum2/float64(st.Jobs) - mean*mean
	if varr < 0 {
		varr = 0
	}
	st.Mean = time.Duration(mean * float64(time.Second))
	st.SD = time.Duration(math.Sqrt(varr) * float64(time.Second))
	st.Min = durs[0]
	st.Max = durs[len(durs)-1]
	st.P50 = durs[len(durs)/2]
	st.P90 = durs[len(durs)*9/10]
	return st
}

// String renders the stats in a one-line human-readable form.
func (s OverheadStats) String() string {
	if s.Jobs == 0 {
		return "no completed jobs"
	}
	return fmt.Sprintf("jobs=%d overhead mean=%v sd=%v min=%v p50=%v p90=%v max=%v resubmits=%d failed=%d",
		s.Jobs, s.Mean.Round(time.Second), s.SD.Round(time.Second),
		s.Min.Round(time.Second), s.P50.Round(time.Second),
		s.P90.Round(time.Second), s.Max.Round(time.Second), s.Resubmits, s.Failed)
}

// PhaseStats decomposes the mean overhead of completed jobs into the
// middleware phases: UI submission, broker matchmaking, batch-queue wait
// plus LRMS dispatch, and input staging. The decomposition attributes each
// optimization's effect to the phase it targets (job grouping removes
// whole submission+broker+queue chains; data parallelism overlaps queue
// waits; service parallelism overlaps everything).
type PhaseStats struct {
	Jobs    int
	Submit  time.Duration // Submitted → Accepted (UI latency incl. queueing)
	Broker  time.Duration // Accepted → Matched (matchmaking, final attempt)
	Queue   time.Duration // Matched → Started + dispatch inside the CE
	Staging time.Duration // Started → InputDone includes dispatch+transfer
}

// Phases computes the mean per-phase latencies over completed jobs.
// Resubmitted jobs attribute everything after acceptance to the final
// attempt, so phase means stay comparable across failure rates.
func (g *Grid) Phases() PhaseStats {
	return PhasesOf(g.records)
}

// PhasesOf computes the per-phase means over an arbitrary record slice,
// with exactly the semantics of Grid.Phases. See OverheadsOf.
func PhasesOf(records []*JobRecord) PhaseStats {
	var st PhaseStats
	var submit, broker, queue, staging float64
	for _, r := range records {
		if r.Status != StatusCompleted {
			continue
		}
		st.Jobs++
		submit += float64(r.Accepted - r.Submitted)
		broker += float64(r.Matched - r.Accepted)
		queue += float64(r.Started - r.Matched)
		staging += float64(r.InputDone - r.Started)
	}
	if st.Jobs == 0 {
		return st
	}
	n := float64(st.Jobs)
	st.Submit = time.Duration(submit / n)
	st.Broker = time.Duration(broker / n)
	st.Queue = time.Duration(queue / n)
	st.Staging = time.Duration(staging / n)
	return st
}

// String renders the phase means in one line.
func (p PhaseStats) String() string {
	if p.Jobs == 0 {
		return "no completed jobs"
	}
	return fmt.Sprintf("jobs=%d submit=%v broker=%v queue=%v staging=%v",
		p.Jobs, p.Submit.Round(time.Second), p.Broker.Round(time.Second),
		p.Queue.Round(time.Second), p.Staging.Round(time.Second))
}
