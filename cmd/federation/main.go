// Command federation runs declarative scenario worlds (internal/scenario)
// of multi-tenant campaigns brokered across federated grids, and prints
// one results row per run: makespan percentiles across tenants, job and
// failure counts, WAN bytes and queueing wait, storage churn, replica
// losses, re-staging rounds and the member grids that took work.
//
// A scenario file is the only world description. -scenario path.json
// runs one spec; -scenarios 'glob' runs a whole library, one row per
// file (the `make scenarios` sweep). Every other flag is an override of
// the loaded spec and applies only when given: the workload shape
// (-tenants, -services, -items, -runtime, -filemb, -spread, -skew), the
// seed, the broker's re-brokering budget, the contended-WAN stream count,
// active storage (-se-cap, -se-policy, -minreplicas) and extra compute or
// storage-only outage windows (-outage, -se-outage). -policies a,b,c runs
// each spec once per broker policy, one row each, on an identically
// seeded world, so the rows compare the policies directly.
//
// Examples:
//
//	federation -scenarios 'scenarios/*.json'    # the library results table
//	federation -scenario scenarios/contended-wan.json -v
//	federation -scenario scenarios/clean-baseline.json -items 40 -seed 7
//	federation -scenario scenarios/locality-skew.json -policies ranked,ranked-blind,backlog
//	federation -scenario scenarios/clean-baseline.json -outage g1@2m+30m -rebroker 2 -policies ranked,rr
//	federation -scenario scenarios/se-churn.json -se-cap 200 -se-outage g2@5m+30m -policies ranked,ranked-safe -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	var (
		tenants      = flag.Int("tenants", 0, "override: tenant count (specs with one tenant group only)")
		servs        = flag.Int("services", 0, "override: pipeline stages per tenant workflow")
		items        = flag.Int("items", 0, "override: input data items per tenant")
		runtime      = flag.Duration("runtime", 0, "override: per-stage compute time")
		fileMB       = flag.Float64("filemb", 0, "override: constant input file size (MB)")
		spread       = flag.Duration("spread", 0, "override: arrival stagger of staggered tenant groups")
		skew         = flag.Float64("skew", 0, "override: fraction of each tenant's inputs resident on its home grid")
		seed         = flag.Uint64("seed", 0, "override: root seed")
		rebroker     = flag.Int("rebroker", 0, "override: cross-grid resubmissions after terminal failure")
		policies     = flag.String("policies", "", "run each spec once per broker policy, comma-separated (ranked|ranked-blind|ranked-safe|backlog|rr|pinned:N)")
		wanStreams   = flag.Int("wanstreams", 0, "override: concurrent cross-grid fetches per ordered grid pair (0: uncontended WAN)")
		outage       = flag.String("outage", "", "extra member-grid outage window, format name@start+duration (omit +duration for no recovery)")
		seOutage     = flag.String("se-outage", "", "extra storage-only outage window (same format as -outage)")
		seCap        = flag.Float64("se-cap", 0, "override: storage-element capacity per site (MB; 0: unlimited)")
		sePolicy     = flag.String("se-policy", "", "override: eviction policy of capacity-limited storage elements (lru|popularity)")
		minRep       = flag.Int("minreplicas", 0, "override: replication floor k (0 disables repair)")
		scenarioPath = flag.String("scenario", "", "run one declarative scenario file")
		scenariosPat = flag.String("scenarios", "", "run every scenario file matching the glob, one row each")
		verbose      = flag.Bool("v", false, "print per-tenant, per-grid, fabric and storage detail under every row")
	)
	flag.Parse()
	if (*scenarioPath == "") == (*scenariosPat == "") {
		fmt.Fprintln(os.Stderr, "usage: federation -scenario file.json | -scenarios 'glob' [overrides...] (see -h)")
		os.Exit(2)
	}

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ov := scenario.Overrides{}
	if set["seed"] {
		ov.Seed = seed
	}
	if set["rebroker"] {
		ov.Rebroker = rebroker
	}
	if set["wanstreams"] {
		ov.WANStreams = wanStreams
	}
	if set["se-cap"] {
		ov.SECapacityMB = seCap
	}
	if set["se-policy"] {
		ov.SEEviction = sePolicy
	}
	if set["minreplicas"] {
		ov.MinReplicas = minRep
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
	if set["skew"] {
		ov.Skew = skew
	}
	for _, fl := range []struct {
		name, val string
		storage   bool
	}{{"outage", *outage, false}, {"se-outage", *seOutage, true}} {
		if !set[fl.name] {
			continue
		}
		o, err := scenario.ParseOutage(fl.val)
		if err != nil {
			fmt.Fprintf(os.Stderr, "federation: -%s: %v\n", fl.name, err)
			os.Exit(2)
		}
		ov.Outages = append(ov.Outages, scenario.OutageSpec{
			Grid: o.Grid, At: scenario.Duration(o.At), For: scenario.Duration(o.For), Storage: fl.storage,
		})
	}
	// One run per listed policy; the empty name keeps the spec's own.
	pols := []string{""}
	if set["policies"] {
		pols = strings.Split(*policies, ",")
		for i := range pols {
			pols[i] = strings.TrimSpace(pols[i])
		}
	}

	paths := []string{*scenarioPath}
	if *scenariosPat != "" {
		var err error
		if paths, err = filepath.Glob(*scenariosPat); err != nil {
			fmt.Fprintln(os.Stderr, "federation: -scenarios:", err)
			os.Exit(2)
		}
		if len(paths) == 0 {
			fmt.Fprintf(os.Stderr, "federation: -scenarios: no files match %q\n", *scenariosPat)
			os.Exit(2)
		}
		sort.Strings(paths)
	}
	// Load and validate every run before the first one starts, so a bad
	// override or policy name fails fast instead of after a long run.
	type job struct {
		spec  *scenario.Spec
		label string
	}
	var jobs []job
	for _, p := range paths {
		for _, pol := range pols {
			spec := load(p, ov, pol)
			label := spec.Name
			switch {
			case pol != "" && *scenariosPat != "":
				label += "/" + pol
			case pol != "":
				label = pol
			}
			jobs = append(jobs, job{spec, label})
		}
	}

	label := "scenario"
	if *scenariosPat != "" {
		fmt.Printf("scenario library: %d scenarios\n\n", len(paths))
	} else {
		spec := jobs[0].spec
		if spec.Description != "" {
			fmt.Printf("scenario %s: %s\n", spec.Name, spec.Description)
		} else {
			fmt.Printf("scenario %s\n", spec.Name)
		}
		fmt.Printf("%d grids, %d tenants, seed %d\n\n", len(spec.GridNames()), spec.TenantCount(), spec.Seed)
		if set["policies"] {
			label = "policy"
		}
	}
	header(label)
	for _, j := range jobs {
		run(j.spec, j.label, *verbose)
	}
}

// load reads one spec file and layers the overrides over it, plus the
// broker policy when pol is non-empty. Validation rejects a bad policy
// name, including a pinned:N index outside the federation.
func load(path string, ov scenario.Overrides, pol string) *scenario.Spec {
	spec, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(2)
	}
	if pol != "" {
		ov.Policy = &pol
	}
	if err := ov.Apply(spec); err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(2)
	}
	return spec
}

// run compiles and enacts one spec on a fresh engine and prints its
// results row, plus the detail tables under -v.
func run(spec *scenario.Spec, label string, verbose bool) {
	w, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
	x, err := w.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
	rep := x.Run()
	row(label, rep, w.Fed)
	if verbose {
		printTenants(rep)
		printVerbose(w.Fed)
	}
}

// header prints the results-table column header with the given label
// column title.
func header(label string) {
	fmt.Printf("%-20s %12s %12s %12s %6s %6s %10s %10s %10s %10s %5s %8s %6s\n",
		label, "span", "p50", "p95", "jobs", "failed", "resubmits", "wan_mb", "wan_wait", "evicted_mb", "lost", "restage", "grids")
}

// row aggregates one run into a results-table row: makespan percentiles
// across tenants, WAN bytes and waits actually paid, storage churn and
// replica-loss counts.
func row(label string, rep *campaign.Report, fed *federation.Federation) {
	ms := make([]time.Duration, 0, len(rep.Tenants))
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			fmt.Fprintf(os.Stderr, "federation: %s: tenant %s: %v\n", label, tr.Name, tr.Err)
			continue
		}
		ms = append(ms, tr.Makespan)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	used, restage := 0, uint64(0)
	var wanMB float64
	var wanWait time.Duration
	for i := 0; i < fed.Size(); i++ {
		if fed.Telemetry(i).Dispatched > 0 {
			used++
		}
		// Bytes actually moved and waits actually paid (failed
		// attempts included), not the telemetry's completed-jobs
		// observation.
		wanMB += fed.Grid(i).RemoteInMB()
		wanWait += fed.Grid(i).WANWait()
		restage += fed.Grid(i).Restages()
	}
	var evictedMB float64
	for _, st := range fed.Catalog().SEStats() {
		evictedMB += st.EvictedMB
	}
	lost := 0
	for _, rec := range fed.Records() {
		if errors.Is(rec.Err, grid.ErrReplicaLost) {
			lost++
		}
	}
	fmt.Printf("%-20s %12v %12v %12v %6d %6d %10d %10.0f %10v %10.0f %5d %8d %3d/%d\n",
		label, rep.Makespan.Round(time.Second),
		pct(ms, 50).Round(time.Second), pct(ms, 95).Round(time.Second),
		rep.Global.Jobs, rep.Global.Failed, rep.Global.Resubmits, wanMB,
		wanWait.Round(time.Second), evictedMB, lost, restage, used, fed.Size())
}

// printTenants prints each tenant's makespan, overheads and adaptation
// decisions, then the campaign's global statistics and phases.
func printTenants(rep *campaign.Report) {
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			fmt.Printf("    %-16s FAILED: %v\n", tr.Name, tr.Err)
			continue
		}
		fmt.Printf("    %-16s arrival=%-8v makespan=%-10v jobs=%-5d ovh_mean=%-8v ovh_p90=%-8v resubmits=%d\n",
			tr.Name, tr.Arrival.Round(time.Second), tr.Makespan.Round(time.Second),
			tr.Overheads.Jobs+tr.Overheads.Failed,
			tr.Overheads.Mean.Round(time.Second), tr.Overheads.P90.Round(time.Second),
			tr.Overheads.Resubmits)
		for _, a := range tr.Adaptations {
			fmt.Printf("        adapt @%v: batch=%d predicted=%v observed-overhead=%v\n",
				a.At.Round(time.Second), a.Batch,
				a.Predicted.Round(time.Second), a.Overhead.Round(time.Second))
		}
	}
	fmt.Printf("    global: %s\n", rep.Global)
	fmt.Printf("    phases: %s\n", rep.GlobalPhases)
}

// printVerbose prints the per-grid telemetry, fabric and storage tables.
func printVerbose(fed *federation.Federation) {
	for i := 0; i < fed.Size(); i++ {
		tl := fed.Telemetry(i)
		fmt.Printf("    %-8s dispatched=%-5d observed=%-5d rebrokered=%-3d submitEWMA=%-8v queueEWMA=%-8v stretch=%-6.2f wan_mb=%-8.0f wan_wait=%-8v restages=%d\n",
			fed.GridName(i), tl.Dispatched, tl.Observed, tl.Rebrokered,
			tl.SubmitEWMA.Round(time.Second), tl.QueueEWMA.Round(time.Second),
			tl.Stretch(), fed.Grid(i).RemoteInMB(), fed.Grid(i).WANWait().Round(time.Second),
			fed.Grid(i).Restages())
	}
	if fab := fed.Fabric(); fab != nil {
		for _, ps := range fab.PairStats() {
			fmt.Printf("    %s>%s cap=%d grants=%d peak_queue=%d\n",
				ps.From, ps.To, ps.Capacity, ps.Grants, ps.PeakWaiting)
		}
	}
	for _, st := range fed.Catalog().SEStats() {
		if st.Evictions == 0 && st.PeakMB == 0 {
			continue
		}
		site := st.Site.Grid
		if st.Site.Cluster != "" {
			site += "/" + st.Site.Cluster
		}
		fmt.Printf("    SE %-20s used=%-8.0f peak=%-8.0f files=%-5d evictions=%-5d evicted_mb=%.0f\n",
			site, st.UsedMB, st.PeakMB, st.Files, st.Evictions, st.EvictedMB)
	}
	if f := fed.Repairs(); f > 0 {
		fmt.Printf("    repairs=%d repaired_mb=%.0f\n", f, fed.RepairedMB())
	}
}

// pct returns the upper nearest-rank percentile of sorted durations.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)*p/100]
}
