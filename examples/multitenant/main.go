// Multitenant: the paper's contention regime made explicit. A steady
// tenant enacts a small pipeline while a second tenant dumps a large
// data-parallel burst on the same grid. The example runs the steady
// tenant three ways — alone, sharing the grid through the fair-share
// submission gate, and sharing it through a tenancy-unaware strict FIFO —
// to show that fair share bounds the interference a burst can inflict,
// while FIFO parks the steady tenant behind the whole burst.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sim"
)

func main() {
	steady := campaign.TenantSpec{
		Name: "steady",
		Opts: core.Options{DataParallelism: true, ServiceParallelism: true},
		// 3 stages × 6 images: a routine analysis someone runs every day.
		Build: campaign.SyntheticChain(3, 6, 2*time.Minute, 5),
	}
	burst := campaign.TenantSpec{
		Name: "burst",
		Opts: core.Options{DataParallelism: true},
		// 1 stage × 200 images: a parameter sweep submitted all at once.
		Build: campaign.SyntheticChain(1, 200, 2*time.Minute, 5),
	}

	alone := steadyMakespan([]campaign.TenantSpec{steady}, false)
	fair := steadyMakespan([]campaign.TenantSpec{burst, steady}, false)
	fifo := steadyMakespan([]campaign.TenantSpec{burst, steady}, true)

	fmt.Printf("steady tenant alone:              %v\n", alone.Round(time.Second))
	fmt.Printf("sharing via fair-share gate:      %v  (%.2fx)\n", fair.Round(time.Second), ratio(fair, alone))
	fmt.Printf("sharing via strict FIFO:          %v  (%.2fx)\n", fifo.Round(time.Second), ratio(fifo, alone))
	fmt.Println()

	// The same contention, watched from the accounting side: per-tenant
	// overheads are disjoint slices of the global statistics.
	rep := run([]campaign.TenantSpec{burst, steady}, false)
	for _, tr := range rep.Tenants {
		fmt.Printf("%-7s %s\n", tr.Name, tr.Overheads)
	}
	fmt.Printf("global  %s\n", rep.Global)
}

func run(tenants []campaign.TenantSpec, strictFIFO bool) *campaign.Report {
	gc := grid.DefaultConfig()
	gc.StrictFIFOSubmit = strictFIFO
	eng := sim.NewEngine()
	x, err := campaign.StartSite(eng, campaign.OnGrid(grid.New(eng, gc)), tenants, campaign.Admission{})
	if err != nil {
		log.Fatal(err)
	}
	rep := x.Run()
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			log.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
	}
	return rep
}

func steadyMakespan(tenants []campaign.TenantSpec, strictFIFO bool) time.Duration {
	for _, tr := range run(tenants, strictFIFO).Tenants {
		if tr.Name == "steady" {
			return tr.Makespan
		}
	}
	log.Fatal("steady tenant missing")
	return 0
}

func ratio(a, b time.Duration) float64 { return float64(a) / float64(b) }
