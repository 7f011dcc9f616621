// Federated quickstart: run a small multi-tenant campaign across a
// 3-grid federation with the locality-aware overhead-ranked broker
// policy. Each tenant's input files are resident on a home grid and
// cross-grid fetches pay a WAN link, so the broker has to weigh data
// movement against middleware quality. This is the program mirrored in
// the top-level README; the full sweep CLI is cmd/federation.
package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	fed, err := federation.New(eng, federation.Config{
		Grids:    federation.HeterogeneousSpecs(3, 1), // 3 grids, skewed capacity + UI latency
		Policy:   federation.Ranked(),                 // overhead-ranked + transfer-cost brokering
		Rebroker: 1,                                   // one cross-grid retry after terminal failure
		// nil Links would do the same: cross-grid fetches pay the default
		// 2 MB/s, 5 s-latency WAN link.
		Links: grid.DefaultWAN(),
	})
	if err != nil {
		panic(err)
	}
	tenants := make([]campaign.TenantSpec, 4)
	for i := range tenants {
		home := grid.Site{Grid: fed.GridName(i % fed.Size())} // inputs resident here
		tenants[i] = campaign.TenantSpec{
			Name:    fmt.Sprintf("t%d", i),
			Arrival: time.Duration(i) * time.Minute,
			Opts:    core.Options{ServiceParallelism: true, DataParallelism: true},
			Build:   campaign.SyntheticChainPlaced(3, 10, 2*time.Minute, 5, home, 1),
		}
	}
	x, err := campaign.StartSite(eng, campaign.OnFederation(fed), tenants, campaign.Admission{})
	if err != nil {
		panic(err)
	}
	rep := x.Run()
	for _, tr := range rep.Tenants {
		fmt.Printf("%s: makespan %v, %d jobs, overhead p90 %v\n",
			tr.Name, tr.Makespan.Round(time.Second),
			tr.Overheads.Jobs, tr.Overheads.P90.Round(time.Second))
	}
	for i := 0; i < fed.Size(); i++ {
		fmt.Printf("%s: %d jobs dispatched, submit EWMA %v, %.0f MB over the WAN\n",
			fed.GridName(i), fed.Telemetry(i).Dispatched,
			fed.Telemetry(i).SubmitEWMA.Round(time.Second), fed.Grid(i).RemoteInMB())
	}
	fmt.Printf("campaign span %v — global: %s\n", rep.Makespan.Round(time.Second), rep.Global)
}
