package scenario

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

// handLocalityWorld assembles the locality acceptance world of
// internal/campaign/locality_test.go exactly as that test does by hand:
// four symmetric quiet grids (24 frictionless nodes, 3s/3s/5s middleware,
// 4 broker slots, seeds 200..203), a 1 MB/s + 10 s WAN, and twelve
// SP+DP tenants arriving every 30 s whose 8×20 MB inputs are fully
// resident on home grids rotating g0..g3.
func handLocalityWorld(t *testing.T) (*campaign.Report, *federation.Federation) {
	t.Helper()
	eng := sim.NewEngine()
	specs := make([]federation.GridSpec, 4)
	for i := range specs {
		cfg := grid.IdealConfig(24)
		cfg.Overheads = grid.OverheadConfig{
			SubmitMean:   3 * time.Second,
			BrokerMean:   3 * time.Second,
			DispatchMean: 5 * time.Second,
		}
		cfg.BrokerSlots = 4
		cfg.Seed = uint64(200 + i)
		specs[i] = federation.GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	f, err := federation.New(eng, federation.Config{
		Grids:  specs,
		Policy: federation.Ranked(),
		Links:  &grid.Links{WAN: grid.Link{MBps: 1, Latency: 10 * time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]campaign.TenantSpec, 12)
	for i := range tenants {
		home := grid.Site{Grid: fmt.Sprintf("g%d", i%4)}
		tenants[i] = campaign.TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Arrival: time.Duration(i) * 30 * time.Second,
			Opts:    core.Options{DataParallelism: true, ServiceParallelism: true},
			Build:   campaign.SyntheticChainPlaced(3, 8, 20*time.Second, 20, home, 1),
		}
	}
	x, err := campaign.StartSite(eng, campaign.OnFederation(f), tenants, campaign.Admission{})
	if err != nil {
		t.Fatal(err)
	}
	return x.Run(), f
}

// TestLocalitySkewSpecEquivalence proves the compiler introduces no
// drift: scenarios/locality-skew.json rebuilt through Compile must match
// the hand-assembled locality acceptance world timestamp for timestamp —
// every tenant's arrival, finish and makespan, and every job record's
// full lifecycle instants (submit, accept, match, start, stage-in,
// complete) across the whole federation.
func TestLocalitySkewSpecEquivalence(t *testing.T) {
	handRep, handFed := handLocalityWorld(t)

	spec, err := Load("../../scenarios/locality-skew.json")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	w, err := Compile(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	x, err := w.Start()
	if err != nil {
		t.Fatal(err)
	}
	specRep := x.Run()

	if got, want := len(specRep.Tenants), len(handRep.Tenants); got != want {
		t.Fatalf("compiled world has %d tenants, hand world %d", got, want)
	}
	for i, tr := range specRep.Tenants {
		hand := handRep.Tenants[i]
		if tr.Err != nil || hand.Err != nil {
			t.Fatalf("tenant %s errored: spec %v, hand %v", tr.Name, tr.Err, hand.Err)
		}
		if tr.Name != hand.Name || tr.Arrival != hand.Arrival ||
			tr.Finish != hand.Finish || tr.Makespan != hand.Makespan ||
			tr.AdmissionDelay != hand.AdmissionDelay {
			t.Fatalf("tenant %d diverged:\n  spec %s arr=%v fin=%v mk=%v adm=%v\n  hand %s arr=%v fin=%v mk=%v adm=%v",
				i, tr.Name, tr.Arrival, tr.Finish, tr.Makespan, tr.AdmissionDelay,
				hand.Name, hand.Arrival, hand.Finish, hand.Makespan, hand.AdmissionDelay)
		}
	}

	specRecs, handRecs := w.Fed.Records(), handFed.Records()
	if len(specRecs) != len(handRecs) {
		t.Fatalf("compiled world produced %d job records, hand world %d", len(specRecs), len(handRecs))
	}
	for i, sr := range specRecs {
		hr := handRecs[i]
		if sr.Tenant != hr.Tenant || sr.Grid != hr.Grid || sr.Cluster != hr.Cluster ||
			sr.Attempts != hr.Attempts || sr.Restages != hr.Restages ||
			sr.Submitted != hr.Submitted || sr.Accepted != hr.Accepted ||
			sr.Matched != hr.Matched || sr.Started != hr.Started ||
			sr.InputDone != hr.InputDone || sr.Completed != hr.Completed ||
			sr.LocalInMB != hr.LocalInMB || sr.RemoteInMB != hr.RemoteInMB {
			t.Fatalf("job record %d diverged:\n  spec %+v\n  hand %+v", i, *sr, *hr)
		}
	}

	if sf, hf := Fingerprint(specRep, w.Fed), Fingerprint(handRep, handFed); sf != hf {
		t.Fatalf("fingerprints diverged: spec %#x, hand %#x", sf, hf)
	}
}
