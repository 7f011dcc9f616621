package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// pin is the simulated outcome of a closed run that must not drift: the
// scenario fingerprint plus the headline counts it hashes, so a mismatch
// says what moved.
type pin struct {
	Fingerprint string  `json:"fingerprint"`
	Jobs        int     `json:"jobs"`
	Failed      int     `json:"failed"`
	Lost        int     `json:"lost"`
	Repairs     int     `json:"repairs"`
	EvictedMB   float64 `json:"evicted_mb"`
	WANMB       float64 `json:"wan_mb"`
	SpanS       float64 `json:"span_s"`
}

func (p pin) String() string {
	return fmt.Sprintf("fingerprint %s jobs %d failed %d lost %d repairs %d evicted_mb %.3f wan_mb %.3f span_s %.3f",
		p.Fingerprint, p.Jobs, p.Failed, p.Lost, p.Repairs, p.EvictedMB, p.WANMB, p.SpanS)
}

// closedResult is what one closed-run child process reports.
type closedResult struct {
	Seed   uint64  `json:"seed"`
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// CPUS is the process's user+system CPU time over the same span.
	CPUS float64 `json:"cpu_s"`
	// SubmitP50Ms and SubmitP99Ms are the host latency of Handle.Submit
	// (broker pick, stage-in planning, enqueue) over SubmitN calls.
	SubmitP50Ms float64 `json:"submit_p50_ms"`
	SubmitP99Ms float64 `json:"submit_p99_ms"`
	SubmitN     int     `json:"submit_n"`
	Pin         pin     `json:"pin"`
	// Counts are per-layer counts and simulated (virtual) outputs read
	// from public accessors after the run; they repeat exactly for a seed.
	Counts map[string]float64 `json:"counts"`
	// Host are per-layer host measurements: runtime statistics always,
	// span times only in a traced run.
	Host map[string]float64 `json:"host"`
	// Problems lists every audit or set-up failure of the run.
	Problems []string `json:"problems,omitempty"`
}

// runClosed executes one closed workload run in this process: set-up
// (scenario.Load, Compile, campaign.StartSite), the stepping loop until
// the campaign is done, Execution.Report, then the pins' inputs and the
// conservation audits outside the timed span. With setupOnly it returns
// right after set-up.
func runClosed(root string, w workload, seed uint64, traced, setupOnly bool) (*closedResult, *tracer, error) {
	res := &closedResult{Seed: seed, Counts: map[string]float64{}, Host: map[string]float64{}}
	p := &probe{}
	if traced {
		p.tr = newTracer(int(seed))
	}

	t0 := time.Now()
	spec, err := scenario.Load(filepath.Join(root, w.scenario))
	if err != nil {
		return nil, nil, err
	}
	if err := w.overrides(seed).Apply(spec); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	world, err := scenario.Compile(eng, spec)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		p.wrapBuilds(world.Tenants, false)
		p.wrapLinks(world.Fed.Catalog())
	}
	tStart := time.Now()
	x, err := campaign.StartSite(eng, p.site(campaign.OnFederation(world.Fed)), world.Tenants, world.Admission)
	if err != nil {
		return nil, nil, err
	}
	res.SetupS = time.Since(t0).Seconds()
	startS := time.Since(tStart).Seconds()
	if setupOnly {
		return res, nil, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var selfBefore time.Duration
	if traced {
		selfBefore = p.tr.selfSum()
	}
	cpu0 := cpuTime()
	tWall := time.Now()
	p.step(eng, x)
	if traced {
		p.tr.begin(layerReport)
	}
	rep := x.Report()
	if traced {
		p.tr.end()
	}
	wall := time.Since(tWall)
	res.WallS = wall.Seconds()
	res.CPUS = (cpuTime() - cpu0).Seconds()
	runtime.ReadMemStats(&m1)

	res.Host["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	res.Host["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	res.Host["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	lat := append([]float64(nil), p.submitNs...)
	sort.Float64s(lat)
	p50, _ := percentile(lat, 50)
	p99, _ := percentile(lat, 99)
	res.SubmitP50Ms, res.SubmitP99Ms, res.SubmitN = p50/1e6, p99/1e6, len(lat)

	if !x.Done() {
		res.Problems = append(res.Problems, fmt.Sprintf("campaign stalled with %d tenants unfinished", x.Remaining()))
	}
	res.Pin = pinOf(rep, world.Fed)
	readCounts(res.Counts, rep, world.Fed, eng)
	res.Counts["sim.peak_pending"] = float64(p.peakPending)
	res.Counts["campaign.tenant_stats_calls"] = float64(p.statsCalls)
	res.Counts["broker.submits"] = float64(p.submits)
	res.Problems = append(res.Problems, audit(p, world.Fed)...)

	if traced {
		tr := p.tr
		res.Host["trace.wall_s"] = res.WallS
		res.Host["trace.self_sum_s"] = (tr.selfSum() - selfBefore).Seconds()
		res.Host["campaign.start_s"] = startS
		spanTimes(res.Host, tr)
		if ev := res.Counts["sim.events"]; ev > 0 {
			res.Host["sim.ns_per_event"] = float64(tr.self[layerStep]) / ev
		}
		res.Host["catalog.link_calls"] = float64(p.linkCalls)
	}
	return res, p.tr, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spanTimes copies the tracer's per-layer times into host: self time for
// the engine loop and the enactor callbacks (their children are other
// layers), inclusive time for the calls whose children belong to them.
func spanTimes(host map[string]float64, tr *tracer) {
	host["sim.step_self_s"] = tr.self[layerStep].Seconds()
	host["campaign.report_s"] = tr.total[layerReport].Seconds()
	host["campaign.tenant_stats_s"] = tr.total[layerTenantStats].Seconds()
	host["core.build_s"] = tr.total[layerBuild].Seconds()
	host["core.done_self_s"] = tr.self[layerDone].Seconds()
	host["broker.submit_s"] = tr.total[layerSubmit].Seconds()
	if n := tr.calls[layerSubmit]; n > 0 {
		host["broker.submit_ns_mean"] = float64(tr.total[layerSubmit]) / float64(n)
	}
	host["catalog.link_s"] = tr.total[layerLink].Seconds()
}

// pinOf condenses a finished run into its pinned outcome.
func pinOf(rep *campaign.Report, f *federation.Federation) pin {
	p := pin{
		Fingerprint: fmt.Sprintf("%016x", scenario.Fingerprint(rep, f)),
		Jobs:        rep.Global.Jobs,
		Failed:      rep.Global.Failed,
		Repairs:     f.Repairs(),
		SpanS:       rep.Makespan.Seconds(),
	}
	for _, r := range f.Records() {
		if errors.Is(r.Err, grid.ErrReplicaLost) {
			p.Lost++
		}
	}
	for _, st := range f.Catalog().SEStats() {
		p.EvictedMB += st.EvictedMB
	}
	for i := 0; i < f.Size(); i++ {
		p.WANMB += f.Grid(i).RemoteInMB()
	}
	return p
}

// readCounts fills the per-layer counts and virtual outputs that public
// accessors expose after a run.
func readCounts(c map[string]float64, rep *campaign.Report, f *federation.Federation, eng *sim.Engine) {
	c["sim.events"] = float64(eng.Fired())
	c["sim.span_s"] = rep.Makespan.Seconds()

	var dispatched, rebrokered int
	var restages uint64
	var wanWait time.Duration
	for i := 0; i < f.Size(); i++ {
		tl := f.Telemetry(i)
		dispatched += tl.Dispatched
		rebrokered += tl.Rebrokered
		restages += f.Grid(i).Restages()
		wanWait += f.Grid(i).WANWait()
	}
	if dispatched > 0 {
		c["broker.rebroker_ratio"] = float64(rebrokered) / float64(dispatched)
	}
	c["grid.restages"] = float64(restages)
	c["fabric.wan_wait_s"] = wanWait.Seconds()
	c["storage.repairs"] = float64(f.Repairs())
	c["storage.repaired_mb"] = f.RepairedMB()

	var evictions uint64
	var evicted, peak float64
	for _, st := range f.Catalog().SEStats() {
		evictions += st.Evictions
		evicted += st.EvictedMB
		peak = max(peak, st.PeakMB)
	}
	c["storage.evictions"] = float64(evictions)
	c["storage.evicted_mb"] = evicted
	c["storage.peak_mb"] = peak

	var grants uint64
	var peakWaiting int
	if fab := f.Fabric(); fab != nil {
		for _, ps := range fab.PairStats() {
			grants += ps.Grants
			peakWaiting = max(peakWaiting, ps.PeakWaiting)
		}
	}
	c["fabric.grants"] = float64(grants)
	c["fabric.peak_waiting"] = float64(peakWaiting)

	var attempts, completed int
	var run time.Duration
	for _, r := range f.Records() {
		attempts += r.Attempts
		if r.Status == grid.StatusCompleted {
			completed++
			run += time.Duration(r.Completed - r.InputDone)
		}
	}
	c["grid.attempts"] = float64(attempts)
	if attempts > 0 {
		c["grid.success_ratio"] = float64(completed) / float64(attempts)
	}
	ph := rep.GlobalPhases
	c["grid.submit_phase_s"] = ph.Submit.Seconds()
	c["grid.queue_phase_s"] = ph.Queue.Seconds()
	c["grid.transfer_phase_s"] = ph.Staging.Seconds()
	if completed > 0 {
		c["grid.run_phase_s"] = (run / time.Duration(completed)).Seconds()
	}
}

// audit checks the conservation invariants of a finished closed run from
// public accessors: every submission's done ran exactly once, no attempt
// is left in a non-terminal state, per-grid dispatch counts add up to the
// federation's records, and every storage element's residency lies in
// [0, peak]. Capacity is soft by design (an element overflows when every
// resident file is floor-protected, see grid.Catalog's ensureRoom), so
// the upper bound is the recorded peak, not the configured capacity.
func audit(p *probe, f *federation.Federation) []string {
	var out []string
	if never, repeated := p.doneLedger(); never+repeated > 0 {
		out = append(out, fmt.Sprintf("done callbacks: %d of %d submissions never completed, %d completed more than once", never, p.submits, repeated))
	}
	st := f.Status()
	for s := grid.StatusSubmitted; s < grid.StatusCompleted; s++ {
		if n := st.JobsByStatus[s]; n > 0 {
			out = append(out, fmt.Sprintf("%d attempts left %s at the end", n, s))
		}
	}
	dispatched := 0
	for i := 0; i < f.Size(); i++ {
		dispatched += f.Telemetry(i).Dispatched
	}
	if n := len(f.Records()); dispatched != n {
		out = append(out, fmt.Sprintf("grids dispatched %d jobs but the federation holds %d records", dispatched, n))
	}
	for _, se := range st.SE {
		if se.UsedMB < 0 || se.UsedMB > se.PeakMB {
			out = append(out, fmt.Sprintf("storage element %s/%s holds %.3f MB outside [0, peak %.3f]", se.Site.Grid, se.Site.Cluster, se.UsedMB, se.PeakMB))
		}
	}
	return out
}
