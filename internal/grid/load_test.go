package grid

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSubmitLoadFactor verifies middleware saturation: burst submission
// pays a higher per-job submission latency than serial submission.
func TestSubmitLoadFactor(t *testing.T) {
	run := func(factor float64) time.Duration {
		cfg := quiet(64)
		cfg.Overheads.SubmitMean = 10 * time.Second
		cfg.Overheads.SubmitLoadFactor = factor
		eng := sim.NewEngine()
		g := New(eng, cfg)
		for i := 0; i < 20; i++ {
			g.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
		}
		eng.Run()
		var total time.Duration
		for _, r := range g.Records() {
			total += time.Duration(r.Accepted - r.Submitted)
		}
		return total
	}
	unloaded, loaded := run(0), run(0.05)
	if loaded <= unloaded {
		t.Fatalf("load factor had no effect: %v vs %v", loaded, unloaded)
	}
}

func TestSubmitLoadFactorCapped(t *testing.T) {
	cfg := quiet(64)
	cfg.Overheads.SubmitMean = 10 * time.Second
	cfg.Overheads.SubmitLoadFactor = 100 // absurd; must be capped
	eng := sim.NewEngine()
	g := New(eng, cfg)
	for i := 0; i < 10; i++ {
		g.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
	}
	eng.Run()
	for _, r := range g.Records() {
		if d := time.Duration(r.Accepted - r.Submitted); d > time.Duration(maxSubmitLoad*10*float64(time.Second))*10 {
			t.Fatalf("uncapped submission latency: %v", d)
		}
	}
}

// TestSerialVsBurstOverhead reproduces the load-dependence the paper's
// NOP-vs-DP comparison rests on: the same jobs see a larger mean overhead
// when submitted as one burst.
func TestSerialVsBurstOverhead(t *testing.T) {
	run := func(burst bool) time.Duration {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.BackgroundHorizon = 24 * time.Hour
		eng := sim.NewEngine()
		g := New(eng, cfg)
		const n = 60
		done := 0
		var submit func(i int)
		submit = func(i int) {
			if i >= n {
				return
			}
			g.Submit(JobSpec{Runtime: 3 * time.Minute}, func(*JobRecord) {
				done++
				if !burst {
					submit(i + 1)
				}
			})
			if burst {
				submit(i + 1)
			}
		}
		submit(0)
		for done < n && eng.Step() {
		}
		return g.Overheads().Mean
	}
	serial, burst := run(false), run(true)
	if burst <= serial {
		t.Fatalf("burst overhead (%v) not larger than serial (%v)", burst, serial)
	}
}

func TestTransferStreamContention(t *testing.T) {
	// One transfer stream: concurrent jobs' stagings serialize.
	run := func(streams int) sim.Time {
		cfg := quiet(8)
		cfg.Clusters[0].TransferMBps = 1 // 100 MB → 100 s per job
		cfg.Clusters[0].TransferStreams = streams
		eng := sim.NewEngine()
		g := New(eng, cfg)
		g.Catalog().Register("gfn://big", 100)
		done := 0
		for i := 0; i < 4; i++ {
			g.Submit(JobSpec{Inputs: []string{"gfn://big"}, Runtime: time.Second},
				func(*JobRecord) { done++ })
		}
		eng.Run()
		if done != 4 {
			t.Fatal("jobs missing")
		}
		return eng.Now()
	}
	serial, parallel := run(1), run(4)
	if serial <= parallel {
		t.Fatalf("transfer streams not contended: 1 stream %v vs 4 streams %v", serial, parallel)
	}
	// With one stream, 4×100 s transfers serialize: ≥ 400 s total.
	if serial < sim.Time(400*time.Second) {
		t.Fatalf("serialized transfers took only %v", serial)
	}
}

func TestBrokerSlotsThroughput(t *testing.T) {
	run := func(slots int) sim.Time {
		cfg := quiet(64)
		cfg.BrokerSlots = slots
		cfg.Overheads.BrokerMean = 30 * time.Second
		eng := sim.NewEngine()
		g := New(eng, cfg)
		for i := 0; i < 16; i++ {
			g.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
		}
		eng.Run()
		return eng.Now()
	}
	narrow, wide := run(1), run(8)
	if narrow <= wide {
		t.Fatalf("broker slots had no effect: 1 slot %v vs 8 slots %v", narrow, wide)
	}
}

func TestWarmStartOccupancy(t *testing.T) {
	cfg := quiet(32)
	cfg.Clusters[0].BackgroundMeanIAT = 10 * time.Second
	cfg.Clusters[0].BackgroundMeanDur = 10 * time.Minute
	cfg.Clusters[0].BackgroundSDDur = time.Minute
	cfg.BackgroundHorizon = time.Hour
	eng := sim.NewEngine()
	g := New(eng, cfg)
	// Immediately after construction, the warm start should have occupied
	// roughly meanDur/meanIAT ≈ 60 → capped at 32 nodes... at least most.
	if busy := g.BusyNodes(); busy < 16 {
		t.Fatalf("warm start occupied only %d nodes", busy)
	}
}

func TestFailedJobDoesNotRegisterOutputs(t *testing.T) {
	cfg := quiet(2)
	cfg.Failures = FailureConfig{Probability: 1, DetectDelay: time.Second, MaxRetries: 1}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	rec := submitOne(t, eng, g, JobSpec{
		Runtime: time.Second,
		Outputs: []FileDecl{{Name: "gfn://never", SizeMB: 1}},
	})
	if rec.Status != StatusFailed {
		t.Fatalf("status = %v", rec.Status)
	}
	if g.Catalog().Has("gfn://never") {
		t.Fatal("failed job registered its outputs")
	}
}

func TestResubmissionTimestampsMonotone(t *testing.T) {
	cfg := quiet(2)
	cfg.Failures = FailureConfig{Probability: 0.7, DetectDelay: time.Minute, MaxRetries: 10}
	cfg.Seed = 5
	eng := sim.NewEngine()
	g := New(eng, cfg)
	var recs []*JobRecord
	for i := 0; i < 10; i++ {
		recs = append(recs, g.Submit(JobSpec{Runtime: time.Minute}, func(*JobRecord) {}))
	}
	eng.Run()
	for _, r := range recs {
		if r.Status != StatusCompleted {
			continue
		}
		if r.Attempts > 1 && r.Matched <= r.Accepted {
			t.Fatalf("resubmitted job's final match (%v) not after acceptance (%v)", r.Matched, r.Accepted)
		}
		if r.Completed < r.InputDone {
			t.Fatalf("completed before staging: %+v", r)
		}
	}
}

func TestPhaseDecomposition(t *testing.T) {
	cfg := quiet(4)
	cfg.Overheads.TransferLatency = time.Second
	eng := sim.NewEngine()
	g := New(eng, cfg)
	g.Catalog().Register("gfn://f", 10)
	for i := 0; i < 5; i++ {
		g.Submit(JobSpec{Inputs: []string{"gfn://f"}, Runtime: time.Minute}, func(*JobRecord) {})
	}
	eng.Run()
	p := g.Phases()
	if p.Jobs != 5 {
		t.Fatalf("jobs = %d", p.Jobs)
	}
	// quiet(): submit latency 2s, but the 5 simultaneous submissions
	// serialize through the UI: mean experienced submit = (2+4+6+8+10)/5.
	if p.Submit != 6*time.Second {
		t.Errorf("submit = %v, want 6s (UI latency incl. queueing)", p.Submit)
	}
	if p.Broker != 3*time.Second {
		t.Errorf("broker = %v, want 3s", p.Broker)
	}
	if p.Staging < 5*time.Second {
		t.Errorf("staging = %v, want ≥ 5s (dispatch + transfer)", p.Staging)
	}
	if p.String() == "" || (PhaseStats{}).String() != "no completed jobs" {
		t.Error("phase string rendering broken")
	}
}
