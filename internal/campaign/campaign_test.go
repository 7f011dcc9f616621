package campaign

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// testGrid returns a small deterministic shared grid: one modest cluster,
// fixed middleware latencies, no background load, no failures — so
// fairness and accounting effects are exact.
func testGrid(nodes int) grid.Config {
	cfg := grid.IdealConfig(nodes)
	cfg.Overheads = grid.OverheadConfig{
		SubmitMean:   2 * time.Second,
		BrokerMean:   3 * time.Second,
		DispatchMean: 5 * time.Second,
	}
	cfg.BrokerSlots = 4
	return cfg
}

func spdp() core.Options {
	return core.Options{DataParallelism: true, ServiceParallelism: true}
}

// runGrid enacts the tenants on a fresh engine and a shared grid built
// from gc, under the admission gate adm.
func runGrid(t *testing.T, gc grid.Config, specs []TenantSpec, adm Admission) *Report {
	t.Helper()
	eng := sim.NewEngine()
	x, err := StartSite(eng, OnGrid(grid.New(eng, gc)), specs, adm)
	if err != nil {
		t.Fatal(err)
	}
	return x.Run()
}

func TestCampaignSingleTenantMatchesSoloRun(t *testing.T) {
	// One tenant in a campaign behaves exactly like a solo enactor run on
	// an identical grid: same makespan, same output count.
	build := SyntheticChain(3, 5, 10*time.Second, 1)

	rep := runGrid(t, testGrid(16), []TenantSpec{{Name: "solo", Opts: spdp(), Build: build}}, Admission{})
	tr := rep.Tenants[0]
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}

	eng := sim.NewEngine()
	g := grid.New(eng, testGrid(16))
	wf, inputs, err := build(g.Tenant("solo"))
	if err != nil {
		t.Fatal(err)
	}
	en, err := core.New(eng, wf, spdp())
	if err != nil {
		t.Fatal(err)
	}
	res, err := en.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != res.Makespan {
		t.Fatalf("campaign makespan %v != solo makespan %v", tr.Makespan, res.Makespan)
	}
	if got := len(tr.Result.Outputs["sink"]); got != 5 {
		t.Fatalf("sink items = %d, want 5", got)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() []time.Duration {
		gc := testGrid(32)
		gc.Seed = 42
		var specs []TenantSpec
		mixes := []core.Options{
			{},
			spdp(),
			{DataParallelism: true},
			{DataParallelism: true, ServiceParallelism: true, DataGroupSize: 3, DataGroupWindow: time.Minute},
		}
		for i, opts := range mixes {
			specs = append(specs, TenantSpec{
				Name:    []string{"t0", "t1", "t2", "t3"}[i],
				Arrival: time.Duration(i) * 30 * time.Second,
				Opts:    opts,
				Build:   SyntheticChain(3, 6, 20*time.Second, 2),
			})
		}
		rep := runGrid(t, gc, specs, Admission{})
		out := make([]time.Duration, len(rep.Tenants))
		for i, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
			out[i] = tr.Makespan
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tenant %d makespan not deterministic: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCampaignFairShare is the acceptance scenario: a steady tenant shares
// the grid with a burst-submitting tenant. With the fair-share gate the
// steady tenant's makespan grows by a bounded factor; under the
// tenancy-unaware strict FIFO it waits behind the whole burst.
func TestCampaignFairShare(t *testing.T) {
	steady := TenantSpec{
		Name:  "steady",
		Opts:  spdp(),
		Build: SyntheticChain(2, 4, 30*time.Second, 1),
	}
	burst := TenantSpec{
		Name:  "burst",
		Opts:  core.Options{DataParallelism: true},
		Build: SyntheticChain(1, 150, 30*time.Second, 1),
	}
	run := func(withBurst, strictFIFO bool) time.Duration {
		gc := testGrid(64)
		gc.StrictFIFOSubmit = strictFIFO
		specs := []TenantSpec{steady}
		if withBurst {
			// The burst arrives first so its whole queue is already in
			// front of the UI when the steady tenant shows up.
			specs = []TenantSpec{burst, steady}
		}
		rep := runGrid(t, gc, specs, Admission{})
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
			if tr.Name == "steady" {
				return tr.Makespan
			}
		}
		t.Fatal("steady tenant missing from report")
		return 0
	}

	alone := run(false, false)
	fair := run(true, false)
	fifo := run(true, true)

	if fair <= alone {
		t.Fatalf("contention had no effect: alone %v, shared %v", alone, fair)
	}
	// Bounded interference: round-robin costs the steady tenant at most
	// one competing submission slot per own submission, not the whole
	// burst. The bound is generous; the observed factor is ~1.1.
	if fair > 3*alone {
		t.Fatalf("fair-share makespan %v more than 3x the solo %v", fair, alone)
	}
	// The strict FIFO parks the steady tenant behind 150 burst
	// submissions; fair share must beat it clearly.
	if 2*fair >= fifo {
		t.Fatalf("fair share (%v) not clearly better than strict FIFO (%v)", fair, fifo)
	}
}

// TestCampaignTenantStatsIsolation checks the acceptance accounting
// properties: per-tenant overhead stats are disjoint and sum-consistent
// with the global Grid.Overheads.
func TestCampaignTenantStatsIsolation(t *testing.T) {
	gc := testGrid(32)
	gc.Failures = grid.FailureConfig{Probability: 0.3, DetectDelay: 30 * time.Second, MaxRetries: 8}
	gc.Seed = 7
	eng := sim.NewEngine()
	g := grid.New(eng, gc)
	x, err := StartSite(eng, OnGrid(g), []TenantSpec{
		{Name: "alpha", Opts: spdp(), Build: SyntheticChain(2, 10, 20*time.Second, 1)},
		{Name: "beta", Opts: core.Options{DataParallelism: true}, Build: SyntheticChain(3, 6, 15*time.Second, 1)},
	}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	rep := x.Run()
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
	}

	// Disjoint: every record belongs to exactly one tenant, and the
	// tenants' record sets cover the global one.
	a, b := g.Tenant("alpha"), g.Tenant("beta")
	na, nb := len(a.Records()), len(b.Records())
	if na == 0 || nb == 0 {
		t.Fatal("a tenant submitted no jobs")
	}
	if na+nb != len(g.Records()) {
		t.Fatalf("tenant records %d+%d do not partition the %d global records", na, nb, len(g.Records()))
	}
	for _, r := range a.Records() {
		if r.Tenant != "alpha" {
			t.Fatalf("alpha's view contains record of tenant %q", r.Tenant)
		}
	}

	// Sum-consistent: counts add up exactly, means combine weighted.
	sa, sb, global := rep.Tenants[0].Overheads, rep.Tenants[1].Overheads, rep.Global
	if sa.Jobs+sb.Jobs != global.Jobs {
		t.Fatalf("completed jobs %d+%d != global %d", sa.Jobs, sb.Jobs, global.Jobs)
	}
	if sa.Failed+sb.Failed != global.Failed {
		t.Fatalf("failed %d+%d != global %d", sa.Failed, sb.Failed, global.Failed)
	}
	if sa.Resubmits+sb.Resubmits != global.Resubmits {
		t.Fatalf("resubmits %d+%d != global %d", sa.Resubmits, sb.Resubmits, global.Resubmits)
	}
	weighted := (float64(sa.Jobs)*sa.Mean.Seconds() + float64(sb.Jobs)*sb.Mean.Seconds()) / float64(global.Jobs)
	if diff := weighted - global.Mean.Seconds(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("weighted tenant means %.9fs != global mean %.9fs", weighted, global.Mean.Seconds())
	}
	if sa.Min < global.Min || sb.Min < global.Min || sa.Max > global.Max || sb.Max > global.Max {
		t.Fatal("tenant extrema outside global extrema")
	}
}

func TestCampaignArrivalWaves(t *testing.T) {
	arrival := 10 * time.Minute
	eng := sim.NewEngine()
	g := grid.New(eng, testGrid(16))
	x, err := StartSite(eng, OnGrid(g), []TenantSpec{
		{Name: "early", Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
		{Name: "late", Arrival: arrival, Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
	}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	rep := x.Run()
	late := rep.Tenants[1]
	if late.Err != nil {
		t.Fatal(late.Err)
	}
	for _, r := range g.Tenant("late").Records() {
		if r.Submitted < sim.Time(arrival) {
			t.Fatalf("late tenant submitted at %v, before its arrival %v", r.Submitted, arrival)
		}
	}
	if late.Finish != late.Arrival+late.Makespan {
		t.Fatalf("finish %v != arrival %v + makespan %v", late.Finish, late.Arrival, late.Makespan)
	}
	// An isolated late arrival takes the same time as an early one.
	if early := rep.Tenants[0]; late.Makespan != early.Makespan {
		t.Fatalf("arrival offset changed an uncontended makespan: early %v, late %v", early.Makespan, late.Makespan)
	}
}

func TestCampaignAdaptiveGranularity(t *testing.T) {
	// A grid with brutal per-job overhead and plenty of nodes: batching
	// many small items per job is clearly optimal, so the feedback loop
	// must raise DataGroupSize above 1.
	gc := testGrid(64)
	gc.Overheads.SubmitMean = 60 * time.Second
	gc.Overheads.DispatchMean = 5 * time.Minute
	eng := sim.NewEngine()
	gr := grid.New(eng, gc)
	x, err := StartSite(eng, OnGrid(gr), []TenantSpec{{
		Name: "adaptive",
		Opts: core.Options{
			DataParallelism:    true,
			ServiceParallelism: true,
			DataGroupWindow:    2 * time.Minute,
		},
		Build: SyntheticChain(2, 40, 5*time.Second, 1),
		Adapt: &AdaptiveGranularity{Interval: 4 * time.Minute, MaxBatch: 16},
	}}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	rep := x.Run()
	tr := rep.Tenants[0]
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if len(tr.Adaptations) == 0 {
		t.Fatal("adaptive tenant recorded no granularity decisions")
	}
	raised := false
	for _, a := range tr.Adaptations {
		if a.Batch > 16 {
			t.Fatalf("adaptation chose batch %d above MaxBatch 16", a.Batch)
		}
		if a.Batch > 1 {
			raised = true
		}
	}
	if !raised {
		t.Fatalf("overhead-dominated grid never drove the batch size above 1: %+v", tr.Adaptations)
	}
	if got := len(tr.Result.Outputs["sink"]); got != 40 {
		t.Fatalf("sink items = %d, want 40", got)
	}
	// Batching must show up as fewer grid jobs than the unbatched 2×40.
	if jobs := len(gr.Records()); jobs >= 80 {
		t.Fatalf("adaptive batching submitted %d jobs, want fewer than the 80 unbatched ones", jobs)
	}
}

func TestCampaignTenantFailureIsIsolated(t *testing.T) {
	// One tenant references a file that is not in the catalog: its run
	// fails, the other tenant is unaffected.
	rep := runGrid(t, testGrid(16), []TenantSpec{
		{Name: "ok", Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
		{Name: "doomed", Opts: spdp(), Build: func(th Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, _, err := SyntheticChain(1, 1, 10*time.Second, 1)(th)
			if err != nil {
				return nil, nil, err
			}
			// Point the source at a GFN that was never registered.
			return wf, map[string][]string{"src": {"gfn://doomed/missing"}}, nil
		}},
	}, Admission{})
	if rep.Tenants[0].Err != nil {
		t.Fatalf("healthy tenant failed: %v", rep.Tenants[0].Err)
	}
	if rep.Tenants[1].Err == nil {
		t.Fatal("doomed tenant reported no error")
	}
	if !strings.Contains(rep.Tenants[1].Err.Error(), "doomed") {
		t.Fatalf("error does not identify the tenant's processor: %v", rep.Tenants[1].Err)
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	ok := SyntheticChain(1, 1, time.Second, 1)
	cases := []struct {
		name    string
		tenants []TenantSpec
	}{
		{"no tenants", nil},
		{"empty name", []TenantSpec{{Name: "", Build: ok}}},
		{"duplicate", []TenantSpec{{Name: "x", Build: ok}, {Name: "x", Build: ok}}},
		{"nil build", []TenantSpec{{Name: "x"}}},
		{"negative arrival", []TenantSpec{{Name: "x", Build: ok, Arrival: -time.Second}}},
		{"bad adapt", []TenantSpec{{Name: "x", Build: ok, Adapt: &AdaptiveGranularity{}}}},
	}
	for _, c := range cases {
		eng := sim.NewEngine()
		if _, err := StartSite(eng, OnGrid(grid.New(eng, testGrid(4))), c.tenants, Admission{}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestRunOnAdvancedEngine: a campaign must run on an engine whose clock
// has already moved — arrivals are relative to the campaign start.
func TestRunOnAdvancedEngine(t *testing.T) {
	eng := sim.NewEngine()
	g := grid.New(eng, testGrid(16))
	eng.RunUntil(sim.Time(time.Hour))
	x, err := StartSite(eng, OnGrid(g), []TenantSpec{
		{Name: "later", Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
	}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	tr := x.Run().Tenants[0]
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if tr.Makespan <= 0 || tr.Finish != tr.Makespan {
		t.Fatalf("finish %v / makespan %v not relative to the campaign start", tr.Finish, tr.Makespan)
	}
}

// TestSetDataGroupSizeBeforeStart: pre-tuning a wrapper-backed enactor
// must not poison the run (a quiescence check before Start used to
// declare it done).
func TestSetDataGroupSizeBeforeStart(t *testing.T) {
	eng := sim.NewEngine()
	g := grid.New(eng, testGrid(16))
	wf, inputs, err := SyntheticChain(2, 6, 10*time.Second, 1)(g.Tenant("pre"))
	if err != nil {
		t.Fatal(err)
	}
	en, err := core.New(eng, wf, core.Options{
		DataParallelism:    true,
		ServiceParallelism: true,
		DataGroupWindow:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.SetDataGroupSize(3)
	res, err := en.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Outputs["sink"]); got != 6 {
		t.Fatalf("sink items = %d, want 6", got)
	}
	if len(g.Records()) >= 12 {
		t.Fatalf("pre-start batch size had no effect: %d jobs for 12 invocations", len(g.Records()))
	}
}

// TestCampaignFailedTenantStopsSubmitting: after a tenant's run fails,
// it must not keep feeding jobs into the shared grid.
func TestCampaignFailedTenantStopsSubmitting(t *testing.T) {
	eng := sim.NewEngine()
	g := grid.New(eng, testGrid(32))
	x, err := StartSite(eng, OnGrid(g), []TenantSpec{
		{Name: "doomed", Opts: spdp(), Build: func(th Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, _, err := SyntheticChain(4, 20, 10*time.Second, 1)(th)
			if err != nil {
				return nil, nil, err
			}
			// One poisoned item among 20 real ones: stage 1 fails on it.
			inputs := make([]string, 20)
			for i := range inputs {
				inputs[i] = fmt.Sprintf("gfn://doomed/input%04d", i)
			}
			inputs[0] = "gfn://doomed/missing"
			return wf, map[string][]string{"src": inputs}, nil
		}},
	}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	rep := x.Run()
	if rep.Tenants[0].Err == nil {
		t.Fatal("doomed tenant reported no error")
	}
	eng.Run() // drain the shared engine past the failure
	// Stage 1 legitimately submits up to 20 jobs before the poisoned one
	// fails; the other three stages (60 more jobs) must not follow.
	if jobs := len(g.Records()); jobs > 25 {
		t.Fatalf("failed tenant kept submitting: %d jobs on the shared grid", jobs)
	}
}

// TestRunRejectsClusterlessNonZeroGrid: a partially-filled grid config
// with no clusters is refused, never silently replaced by the default
// grid (which would discard the caller's seed and gate policy). Building
// the campaign's site is where the refusal happens.
func TestRunRejectsClusterlessNonZeroGrid(t *testing.T) {
	gc := grid.Config{Seed: 42, StrictFIFOSubmit: true} // no clusters, not zero
	defer func() {
		if recover() == nil {
			t.Fatal("cluster-less non-zero grid config accepted")
		}
	}()
	eng := sim.NewEngine()
	StartSite(eng, OnGrid(grid.New(eng, gc)), []TenantSpec{{Name: "x", Build: SyntheticChain(1, 1, time.Second, 1)}}, Admission{})
}

// TestCampaignBatchedFailureStopsSubmitting: a pending DataGroupWindow
// flush timer of a failed tenant must not submit its held batch to the
// shared grid.
func TestCampaignBatchedFailureStopsSubmitting(t *testing.T) {
	eng := sim.NewEngine()
	g := grid.New(eng, testGrid(16))
	x, err := StartSite(eng, OnGrid(g), []TenantSpec{{
		Name: "batched",
		Opts: core.Options{
			DataParallelism:    true,
			ServiceParallelism: true,
			DataGroupSize:      3,
			DataGroupWindow:    6 * time.Hour,
		},
		Build: func(th Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, inputs, err := SyntheticChain(1, 5, 10*time.Second, 1)(th)
			if err != nil {
				return nil, nil, err
			}
			// Poison the first batch: its grid job fails on stage-in,
			// failing the tenant while 2 items sit on the window timer.
			inputs["src"][0] = "gfn://batched/missing"
			return wf, inputs, nil
		},
	}}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	rep := x.Run()
	if rep.Tenants[0].Err == nil {
		t.Fatal("poisoned batch did not fail the tenant")
	}
	before := len(g.Records())
	eng.Run() // fire the pending window flush on the shared engine
	if after := len(g.Records()); after != before {
		t.Fatalf("failed tenant's window flush submitted %d more jobs", after-before)
	}
}

// TestCampaignStalledAdaptiveTenantTerminates: an adaptive tenant whose
// workflow stalls must not keep the engine alive through its own retuning
// ticks — Execution.Run has to return and report the stall.
func TestCampaignStalledAdaptiveTenantTerminates(t *testing.T) {
	stalling := func(th Handle) (*workflow.Workflow, map[string][]string, error) {
		eng := th.Engine()
		w := workflow.New("stall")
		w.AddSource("src")
		half := services.NewLocal(eng, "half", 1<<20, services.ConstantRuntime(time.Second),
			func(req services.Request) map[string]string {
				if req.Index[0] == 0 {
					return map[string]string{} // drops item 0
				}
				return map[string]string{"out": req.Inputs["in"]}
			})
		echo := func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["in"]}
		}
		w.AddService("half", half, []string{"in"}, []string{"out"})
		w.AddService("starved", services.NewLocal(eng, "starved", 1<<20, services.ConstantRuntime(time.Second), echo),
			[]string{"in"}, []string{"out"})
		w.AddService("gated", services.NewLocal(eng, "gated", 1<<20, services.ConstantRuntime(time.Second), echo),
			[]string{"in"}, []string{"out"})
		w.AddSink("s1")
		w.AddSink("s2")
		w.Connect("src", workflow.SourcePort, "half", "in")
		w.Connect("half", "out", "starved", "in")
		w.Connect("starved", "out", "s1", workflow.SinkPort)
		w.Connect("src", workflow.SourcePort, "gated", "in")
		w.Connect("gated", "out", "s2", workflow.SinkPort)
		w.Constrain("starved", "gated") // starved never drains: expects 2, gets 1
		return w, map[string][]string{"src": {"a", "b"}}, nil
	}
	rep := runGrid(t, testGrid(8), []TenantSpec{{
		Name:  "stuck",
		Opts:  spdp(),
		Build: stalling,
		Adapt: &AdaptiveGranularity{Interval: time.Minute},
	}}, Admission{})
	if !errors.Is(rep.Tenants[0].Err, core.ErrStalled) {
		t.Fatalf("tenant err = %v, want ErrStalled", rep.Tenants[0].Err)
	}
}
