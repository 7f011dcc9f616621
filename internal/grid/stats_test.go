package grid

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// completedRec builds a terminal completed record with the given overhead.
func completedRec(overhead time.Duration, attempts int) *JobRecord {
	return &JobRecord{
		Status:    StatusCompleted,
		Attempts:  attempts,
		Submitted: 0,
		InputDone: sim.Time(overhead),
	}
}

// TestOverheadPercentileEdges pins the upper nearest-rank percentile
// convention on tiny and even sample sizes: P50 = durs[n/2],
// P90 = durs[n*9/10] of the sorted overheads.
func TestOverheadPercentileEdges(t *testing.T) {
	mk := func(secs ...int) []*JobRecord {
		recs := make([]*JobRecord, len(secs))
		for i, s := range secs {
			recs[i] = completedRec(time.Duration(s)*time.Second, 1)
		}
		return recs
	}
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }

	cases := []struct {
		name               string
		recs               []*JobRecord
		p50, p90, min, max time.Duration
	}{
		{"n=1", mk(7), sec(7), sec(7), sec(7), sec(7)},
		{"n=2", mk(9, 1), sec(9), sec(9), sec(1), sec(9)},
		{"n=3", mk(3, 1, 2), sec(2), sec(3), sec(1), sec(3)},
		{"n=4 even", mk(4, 2, 3, 1), sec(3), sec(4), sec(1), sec(4)},
		{"n=10 even", mk(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), sec(6), sec(10), sec(1), sec(10)},
	}
	for _, c := range cases {
		st := OverheadsOf(c.recs)
		if st.Jobs != len(c.recs) {
			t.Errorf("%s: Jobs = %d", c.name, st.Jobs)
		}
		if st.P50 != c.p50 || st.P90 != c.p90 || st.Min != c.min || st.Max != c.max {
			t.Errorf("%s: p50=%v p90=%v min=%v max=%v, want %v/%v/%v/%v",
				c.name, st.P50, st.P90, st.Min, st.Max, c.p50, c.p90, c.min, c.max)
		}
		if st.Min > st.P50 || st.P50 > st.P90 || st.P90 > st.Max {
			t.Errorf("%s: percentile ordering violated: %+v", c.name, st)
		}
	}
	if st := OverheadsOf(nil); st.Jobs != 0 || st.String() != "no completed jobs" {
		t.Errorf("empty stats = %+v", st)
	}
}

// TestResubmitsCountTerminalJobsOnly: attempts of in-flight jobs must not
// leak into Resubmits, which is documented over terminal jobs.
func TestResubmitsCountTerminalJobsOnly(t *testing.T) {
	recs := []*JobRecord{
		completedRec(time.Second, 3),           // 2 resubmits
		{Status: StatusFailed, Attempts: 5},    // 4 resubmits
		{Status: StatusRunning, Attempts: 4},   // in flight: ignored
		{Status: StatusQueued, Attempts: 2},    // in flight: ignored
		{Status: StatusSubmitted, Attempts: 0}, // not yet matched
		completedRec(2*time.Second, 1),         // clean run
	}
	st := OverheadsOf(recs)
	if st.Resubmits != 6 {
		t.Fatalf("Resubmits = %d, want 6 (terminal jobs only)", st.Resubmits)
	}
	if st.Failed != 1 || st.Jobs != 2 {
		t.Fatalf("Failed=%d Jobs=%d", st.Failed, st.Jobs)
	}

	// End-to-end: query stats while a resubmission cycle is mid-flight.
	cfg := quiet(2)
	cfg.Failures = FailureConfig{Probability: 1, DetectDelay: time.Hour, MaxRetries: 5}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	g.Submit(JobSpec{Runtime: time.Minute}, func(*JobRecord) {})
	// Run until the first attempt is in its detection delay: the record
	// has Attempts=1 and is still non-terminal.
	eng.RunUntil(sim.Time(30 * time.Minute))
	if rec := g.Records()[0]; rec.Status == StatusCompleted || rec.Status == StatusFailed {
		t.Fatalf("job already terminal (%v); test setup broken", rec.Status)
	}
	if st := g.Overheads(); st.Resubmits != 0 {
		t.Fatalf("in-flight job contributed %d resubmits", st.Resubmits)
	}
	eng.Run()
	if st := g.Overheads(); st.Resubmits != 4 || st.Failed != 1 {
		t.Fatalf("after exhaustion: resubmits=%d failed=%d, want 4/1", st.Resubmits, st.Failed)
	}
}

// TestStageInFailureCountedPerCluster: a missing catalog file must show up
// in the cluster's failure accounting like a compute-time failure does.
func TestStageInFailureCountedPerCluster(t *testing.T) {
	cfg := quiet(2)
	eng := sim.NewEngine()
	g := New(eng, cfg)
	submitOne(t, eng, g, JobSpec{Name: "j", Inputs: []string{"gfn://absent"}, Runtime: time.Second})
	cs := g.ClusterStats()
	if len(cs) != 1 {
		t.Fatalf("clusters = %d", len(cs))
	}
	if cs[0].ForegroundJobs == 0 {
		t.Fatal("attempt not counted as a foreground job")
	}
	if cs[0].ForegroundFailed != cs[0].ForegroundJobs {
		t.Fatalf("stage-in failures invisible: %d attempts, %d failed", cs[0].ForegroundJobs, cs[0].ForegroundFailed)
	}

	// Compute-time failures keep being counted too.
	cfg2 := quiet(2)
	cfg2.Failures = FailureConfig{Probability: 1, DetectDelay: time.Second, MaxRetries: 2}
	eng2 := sim.NewEngine()
	g2 := New(eng2, cfg2)
	submitOne(t, eng2, g2, JobSpec{Name: "k", Runtime: time.Second})
	cs2 := g2.ClusterStats()
	var failed uint64
	for _, c := range cs2 {
		failed += c.ForegroundFailed
	}
	if failed != 2 {
		t.Fatalf("compute failures counted %d times, want 2 (MaxRetries)", failed)
	}
}

// TestIdleGridClusterSpread: on an idle grid the broker must not collapse
// onto the first (largest) cluster — the additive rank floor keeps the
// matchmaking noise effective at zero backlog.
func TestIdleGridClusterSpread(t *testing.T) {
	cfg := quiet(0)
	names := []string{"a", "b", "c", "d"}
	cfg.Clusters = nil
	for _, n := range names {
		cfg.Clusters = append(cfg.Clusters, ClusterConfig{
			Name: n, Nodes: 8, MinSpeed: 1, MaxSpeed: 1,
			TransferMBps: 1e12, TransferStreams: 8,
		})
	}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	// Submit strictly one at a time so the grid is idle at every
	// matchmaking decision.
	const n = 200
	done := 0
	var next func()
	next = func() {
		if done >= n {
			return
		}
		g.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {
			done++
			next()
		})
	}
	next()
	eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	seen := map[string]int{}
	for _, r := range g.Records() {
		seen[r.Cluster]++
	}
	for _, name := range names {
		// Uniform would be 50 each; demand at least a quarter of that.
		if seen[name] < n/16 {
			t.Fatalf("idle-grid matchmaking starved cluster %s: %v", name, seen)
		}
	}
	if seen["a"] > n/2 {
		t.Fatalf("idle-grid matchmaking still biased to the first cluster: %v", seen)
	}
}

// TestDefaultConfigSaturation: the default grid must actually exhibit the
// paper's central observation — burst submission measurably inflates the
// mean submission latency over serial submission.
func TestDefaultConfigSaturation(t *testing.T) {
	if f := DefaultConfig().Overheads.SubmitLoadFactor; f <= 0 {
		t.Fatalf("DefaultConfig.SubmitLoadFactor = %v; the saturation knob is dead", f)
	}
	// Submit the same 200-job burst with the default factor and with the
	// knob forced off: the ratio of mean submit phases is the pure
	// saturation inflation (both runs draw identical base latencies from
	// the same seed and submission order).
	run := func(factor float64) time.Duration {
		cfg := DefaultConfig()
		cfg.Overheads.SubmitLoadFactor = factor
		cfg.BackgroundHorizon = 12 * time.Hour
		eng := sim.NewEngine()
		g := New(eng, cfg)
		const n = 200
		done := 0
		for i := 0; i < n; i++ {
			g.Submit(JobSpec{Runtime: 3 * time.Minute}, func(*JobRecord) { done++ })
		}
		for done < n && eng.Step() {
		}
		if done != n {
			t.Fatal("jobs missing")
		}
		return g.Phases().Submit
	}
	unloaded, loaded := run(0), run(DefaultConfig().Overheads.SubmitLoadFactor)
	if loaded < unloaded*11/10 {
		t.Fatalf("default-config burst submit phase %v not measurably above the unloaded %v (want ≥1.1x)",
			loaded, unloaded)
	}
}

// TestTenantStatsIsolationOnGrid exercises the tenancy accounting at the
// grid level: two tenants' overhead views are disjoint and partition the
// global statistics.
func TestTenantStatsIsolationOnGrid(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(8))
	ta, tb := g.Tenant("a"), g.Tenant("b")
	if g.Tenant("a") != ta {
		t.Fatal("tenant handles not memoized")
	}
	for i := 0; i < 5; i++ {
		ta.Submit(JobSpec{Runtime: time.Minute}, func(*JobRecord) {})
	}
	for i := 0; i < 3; i++ {
		tb.Submit(JobSpec{Runtime: time.Minute}, func(*JobRecord) {})
	}
	g.Submit(JobSpec{Runtime: time.Minute}, func(*JobRecord) {}) // default tenant
	eng.Run()

	sa, sb, global := ta.Overheads(), tb.Overheads(), g.Overheads()
	if sa.Jobs != 5 || sb.Jobs != 3 || global.Jobs != 9 {
		t.Fatalf("jobs a=%d b=%d global=%d, want 5/3/9", sa.Jobs, sb.Jobs, global.Jobs)
	}
	for _, r := range ta.Records() {
		if r.Tenant != "a" {
			t.Fatalf("tenant a's records include %q", r.Tenant)
		}
	}
	if pa := ta.Phases(); pa.Jobs != 5 {
		t.Fatalf("tenant a phase jobs = %d", pa.Jobs)
	}
	if def := g.Tenant("").Overheads(); def.Jobs != 1 {
		t.Fatalf("default tenant jobs = %d, want 1", def.Jobs)
	}
}

// TestFairShareGateInterleavesTenants: with one tenant's burst queued, a
// second tenant's single submission is served after one round-robin turn,
// not after the whole burst.
func TestFairShareGateInterleavesTenants(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(64)) // 2s deterministic submit latency
	burst, single := g.Tenant("burst"), g.Tenant("single")
	for i := 0; i < 50; i++ {
		burst.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
	}
	var rec *JobRecord
	eng.Schedule(time.Second, func() {
		rec = single.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
	})
	eng.Run()
	// Arrival at t=1s with one burst submission in service until t=2s and
	// the round-robin pointer on "burst": one more burst turn (2s–4s),
	// then "single" is served at 4s and accepted at 6s — not at 102s
	// behind the whole burst.
	if got, want := rec.Accepted, sim.Time(6*time.Second); got != want {
		t.Fatalf("single tenant accepted at %v, want %v (round-robin after the in-service job)", got, want)
	}

	// Strict FIFO control: the same arrival pattern parks the single
	// submission behind the whole burst.
	eng2 := sim.NewEngine()
	cfg := quiet(64)
	cfg.StrictFIFOSubmit = true
	g2 := New(eng2, cfg)
	b2, s2 := g2.Tenant("burst"), g2.Tenant("single")
	for i := 0; i < 50; i++ {
		b2.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
	}
	var rec2 *JobRecord
	eng2.Schedule(time.Second, func() {
		rec2 = s2.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
	})
	eng2.Run()
	if got, want := rec2.Accepted, sim.Time(102*time.Second); got != want {
		t.Fatalf("strict-FIFO single tenant accepted at %v, want %v (behind the burst)", got, want)
	}
}
