package campaign

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/sim"
)

// BenchmarkCampaignReport times Execution.Report over a finished
// 2000-tenant campaign on the four-grid federation: ten jobs per tenant,
// 20k records in all. Report reads every tenant's overhead and phase
// statistics, so its cost is what per-tenant accounting costs at campaign
// scale.
func BenchmarkCampaignReport(b *testing.B) {
	const tenants = 2000
	eng := sim.NewEngine()
	f, err := federation.New(eng, federation.Config{Grids: fedSpecs(), Policy: federation.RoundRobin()})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]TenantSpec, tenants)
	for i := range specs {
		specs[i] = TenantSpec{
			Name:    fmt.Sprintf("t%04d", i),
			Arrival: time.Duration(i) * time.Second,
			Opts:    spdp(),
			Build:   SyntheticChain(2, 5, 20*time.Second, 1),
		}
	}
	x, err := StartSite(eng, OnFederation(f), specs, Admission{})
	if err != nil {
		b.Fatal(err)
	}
	rep := x.Run()
	jobs := 0
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			b.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
		jobs += tr.Overheads.Jobs
	}
	if jobs != rep.Global.Jobs || jobs != tenants*10 {
		b.Fatalf("tenant jobs sum to %d, global %d, want %d", jobs, rep.Global.Jobs, tenants*10)
	}
	b.ReportAllocs()
	for b.Loop() {
		x.Report()
	}
}
