// Command campaign runs a multi-tenant enactment campaign on the default
// production-grid model and reports per-tenant makespans, overheads and
// fairness. Each tenant enacts a synthetic linear pipeline; the
// optimization mix cycles across tenants so heterogeneous contention
// scenarios (SP-only vs DP+JG vs batched vs adaptive) come out of one
// command line.
//
// With -scenario the whole world comes from a declarative spec file
// (internal/scenario) instead: the campaign runs on the scenario's
// federation with its tenant mix, and the workload flags become
// overrides of the spec.
//
// Examples:
//
//	campaign -tenants 8 -services 4 -items 20
//	campaign -tenants 8 -fifo          # tenancy-unaware FIFO, for comparison
//	campaign -tenants 4 -adapt 10m     # adaptive granularity feedback loop
//	campaign -scenario scenarios/population-burst.json
//	campaign -scenario scenarios/clean-baseline.json -items 40
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mixes is the optimization rotation across tenants.
var mixes = []struct {
	name string
	opts core.Options
}{
	{"SP+DP", core.Options{ServiceParallelism: true, DataParallelism: true}},
	{"SP+DP+JG", core.Options{ServiceParallelism: true, DataParallelism: true, JobGrouping: true}},
	{"DP", core.Options{DataParallelism: true}},
	{"SP+DP+batch4", core.Options{ServiceParallelism: true, DataParallelism: true,
		DataGroupSize: 4, DataGroupWindow: time.Minute}},
}

func main() {
	var (
		tenants      = flag.Int("tenants", 8, "number of concurrent tenants")
		servs        = flag.Int("services", 4, "pipeline stages per tenant workflow")
		items        = flag.Int("items", 20, "input data items per tenant")
		runtime      = flag.Duration("runtime", 2*time.Minute, "per-stage compute time")
		fileMB       = flag.Float64("filemb", 5, "input/intermediate file size (MB)")
		spread       = flag.Duration("spread", time.Minute, "arrival stagger between tenants")
		seed         = flag.Uint64("seed", 1, "grid random seed")
		fifo         = flag.Bool("fifo", false, "strict FIFO at the UI instead of the fair-share gate")
		adapt        = flag.Duration("adapt", 0, "adaptive-granularity retuning period (0 disables)")
		horizon      = flag.Duration("horizon", 14*24*time.Hour, "background-load horizon")
		scenarioPath = flag.String("scenario", "", "run a declarative scenario file; workload flags become overrides of the spec")
		showAdpt     = flag.Bool("v", false, "print every adaptation decision")
	)
	flag.Parse()

	if *scenarioPath != "" {
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"fifo", "adapt", "horizon"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "campaign: -%s cannot override a scenario; edit the spec instead\n", name)
				os.Exit(2)
			}
		}
		ov := scenario.Overrides{}
		if set["seed"] {
			ov.Seed = seed
		}
		if set["tenants"] {
			ov.Tenants = tenants
		}
		if set["services"] {
			ov.Stages = servs
		}
		if set["items"] {
			ov.Items = items
		}
		if set["runtime"] {
			ov.Runtime = runtime
		}
		if set["filemb"] {
			ov.FileMB = fileMB
		}
		if set["spread"] {
			ov.Spread = spread
		}
		runScenario(*scenarioPath, ov, *showAdpt)
		return
	}

	gc := grid.DefaultConfig()
	gc.Seed = *seed
	gc.StrictFIFOSubmit = *fifo
	gc.BackgroundHorizon = *horizon

	var specs []campaign.TenantSpec
	for i := 0; i < *tenants; i++ {
		mix := mixes[i%len(mixes)]
		ts := campaign.TenantSpec{
			Name:    fmt.Sprintf("t%02d-%s", i, mix.name),
			Arrival: time.Duration(i) * *spread,
			Opts:    mix.opts,
			Build:   campaign.SyntheticChain(*servs, *items, *runtime, *fileMB),
		}
		if *adapt > 0 {
			ts.Adapt = &campaign.AdaptiveGranularity{Interval: *adapt, MaxBatch: *items}
		}
		specs = append(specs, ts)
	}

	gate := "fair-share"
	if *fifo {
		gate = "strict FIFO"
	}
	fmt.Printf("campaign: %d tenants × %d-stage chains × %d items on the default grid (%s gate, seed %d)\n\n",
		*tenants, *servs, *items, gate, *seed)

	eng := sim.NewEngine()
	x, err := campaign.StartSite(eng, campaign.OnGrid(grid.New(eng, gc)), specs, campaign.Admission{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
	printReport(x.Run(), *showAdpt)
}

// runScenario compiles and runs one spec file with CLI overrides applied,
// then prints the standard per-tenant table.
func runScenario(path string, ov scenario.Overrides, showAdpt bool) {
	spec, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(2)
	}
	if err := ov.Apply(spec); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(2)
	}
	eng := sim.NewEngine()
	w, err := scenario.Compile(eng, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
	fmt.Printf("campaign: scenario %s — %d tenants over %d grids (seed %d)\n\n",
		spec.Name, spec.TenantCount(), len(spec.GridNames()), spec.Seed)
	x, err := w.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
	printReport(x.Run(), showAdpt)
}

// printReport prints the per-tenant makespan/overhead table and the
// campaign totals.
func printReport(rep *campaign.Report, showAdpt bool) {
	fmt.Printf("%-16s %10s %12s %6s %12s %12s %10s\n",
		"tenant", "arrival", "makespan", "jobs", "ovh mean", "ovh p90", "resubmits")
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			fmt.Printf("%-16s %10s %12s  FAILED: %v\n", tr.Name, tr.Arrival, "-", tr.Err)
			continue
		}
		fmt.Printf("%-16s %10v %12v %6d %12v %12v %10d\n",
			tr.Name, tr.Arrival, tr.Makespan.Round(time.Second),
			tr.Overheads.Jobs+tr.Overheads.Failed,
			tr.Overheads.Mean.Round(time.Second), tr.Overheads.P90.Round(time.Second),
			tr.Overheads.Resubmits)
		if showAdpt {
			for _, a := range tr.Adaptations {
				fmt.Printf("    adapt @%v: batch=%d predicted=%v observed-overhead=%v\n",
					a.At.Round(time.Second), a.Batch,
					a.Predicted.Round(time.Second), a.Overhead.Round(time.Second))
			}
		}
	}
	fmt.Printf("\ncampaign span %v\n", rep.Makespan.Round(time.Second))
	fmt.Printf("global: %s\n", rep.Global)
	fmt.Printf("phases: %s\n", rep.GlobalPhases)
}
