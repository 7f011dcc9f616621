// Command federation sweeps broker policies over a multi-grid federated
// campaign: the same multi-tenant load is enacted once per policy on a
// fresh, identically-seeded federation of heterogeneous grids, so the
// per-policy makespan distributions and per-grid dispatch tables are
// directly comparable. The member grids are derived from the default
// production-grid model with skewed capacity and UI latency
// (federation.HeterogeneousSpecs), which is the regime where brokering
// matters: a policy blind to middleware quality parks load behind slow
// serialized UIs.
//
// Data locality is first-class: a -skew fraction of each tenant's inputs
// is placed on its home grid (homes rotate across members), cross-grid
// fetches pay the -wan/-wanlat link (or a per-pair -pairs matrix), and
// the wan_mb column reports the bytes each policy actually moved. The
// WAN can be made a contended fabric with -wanstreams: each ordered grid
// pair becomes a capacity-limited shared channel, concurrent fetches
// queue, and the wan_wait column reports the induced queueing. A member
// grid can be taken dark mid-campaign with -outage: its in-flight jobs
// fail and re-broker elsewhere, and no work is routed to it during the
// window. The -locality mode sweeps replica skew × WAN bandwidth over
// the locality-aware ranked policy, its locality-blind control and
// least-backlog, mapping out when data-aware brokering pays.
//
// Storage elements are active too: -se-cap gives every element a finite
// capacity with -se-policy eviction (lru or popularity), -minreplicas
// arms the k-replication repair floor, and -se-outage takes one member's
// storage (not its compute) dark for a window, so fetches sourced from
// it fail and re-stage from surviving replicas. The evicted_mb, lost and
// restage columns report the resulting churn: bytes drained under
// capacity pressure, jobs whose entire replica set died (ErrReplicaLost)
// and backed-off re-staging rounds.
//
// Whole worlds can come from declarative spec files instead of flags:
// -scenario path.json compiles and runs one scenario (internal/scenario),
// with the workload and storage flags acting as overrides of the spec,
// and -scenarios 'glob' runs a whole library and prints one results row
// per scenario — the `make scenarios` sweep.
//
// Examples:
//
//	federation                                  # sweep all policies, 4 grids × 16 tenants
//	federation -grids 2 -tenants 8 -policies ranked,backlog
//	federation -policies ranked,ranked-blind -skew 1 -wan 0.5 -wanstreams 1
//	federation -policies ranked,rr -outage grid01@2h+90m -rebroker 2
//	federation -pairs 'grid00>grid01=1:10s,grid01>grid00=8:1s' -skew 1
//	federation -locality -skews 0,0.5,1 -wans 0.5,2,8
//	federation -se-cap 400 -se-policy popularity -minreplicas 2 -skew 1
//	federation -policies ranked,ranked-safe -se-outage grid01@1h+2h -minreplicas 2
//	federation -scenario scenarios/contended-wan.json -v
//	federation -scenario scenarios/clean-baseline.json -items 40 -seed 7
//	federation -scenarios 'scenarios/*.json'    # the library results table
//	federation -policies ranked,pinned:3 -v     # acceptance comparison + per-grid tables
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
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mixes is the optimization rotation across tenants, as in cmd/campaign.
var mixes = []core.Options{
	{ServiceParallelism: true, DataParallelism: true},
	{ServiceParallelism: true, DataParallelism: true, JobGrouping: true},
	{DataParallelism: true},
	{ServiceParallelism: true, DataParallelism: true, DataGroupSize: 4, DataGroupWindow: time.Minute},
}

// sweep carries the scenario knobs shared by every run of one
// invocation: infrastructure shape, workload shape, link topology,
// contention and outage schedule.
type sweep struct {
	grids, tenants, servs, items int
	runtime                      time.Duration
	fileMB                       float64
	spread                       time.Duration
	seed                         uint64
	rebroker                     int
	skew                         float64
	links                        *grid.Links
	wanStreams                   int
	outages                      []federation.Outage
	seCap                        float64
	sePolicy                     grid.EvictionPolicy
	minReplicas                  int
}

func main() {
	var (
		grids        = flag.Int("grids", 4, "number of member grids in the federation")
		tenants      = flag.Int("tenants", 16, "number of concurrent tenants")
		servs        = flag.Int("services", 4, "pipeline stages per tenant workflow")
		items        = flag.Int("items", 20, "input data items per tenant")
		runtime      = flag.Duration("runtime", 2*time.Minute, "per-stage compute time")
		fileMB       = flag.Float64("filemb", 5, "input/intermediate file size (MB)")
		spread       = flag.Duration("spread", time.Minute, "arrival stagger between tenants")
		seed         = flag.Uint64("seed", 1, "base random seed (grid i uses seed+i)")
		rebroker     = flag.Int("rebroker", 1, "cross-grid resubmissions after terminal failure")
		policies     = flag.String("policies", "ranked,backlog,rr,pinned:0", "comma-separated policies to sweep (ranked|ranked-blind|ranked-safe|backlog|rr|pinned:N)")
		skew         = flag.Float64("skew", 0, "fraction of each tenant's inputs placed on its home grid (homes rotate across members)")
		wan          = flag.Float64("wan", 2, "WAN bandwidth between member grids (MB/s; 0 keeps cross-grid staging free)")
		wanLat       = flag.Duration("wanlat", 5*time.Second, "per-file WAN fetch setup latency")
		wanStreams   = flag.Int("wanstreams", 0, "concurrent cross-grid fetches per ordered (from,to) grid pair (0 keeps the uncontended pure-delay WAN)")
		outage       = flag.String("outage", "", "member-grid outage window, format name@start+duration (e.g. grid01@2h+90m; omit +duration for no recovery)")
		seOutage     = flag.String("se-outage", "", "storage-only outage window (same format as -outage): the grid's storage elements go dark, its compute stays up")
		seCap        = flag.Float64("se-cap", 0, "storage-element capacity per site (MB; 0 keeps elements unlimited)")
		sePolicy     = flag.String("se-policy", "lru", "eviction policy of capacity-limited storage elements (lru|popularity)")
		minRep       = flag.Int("minreplicas", 0, "replication floor k: files below k live replicas are repaired onto healthy grids (0 disables repair)")
		pairs        = flag.String("pairs", "", "per-pair WAN link overrides, format from>to=MBps:latency[,...]; unlisted pairs fall back to -wan/-wanlat")
		locality     = flag.Bool("locality", false, "run the locality sweep (replica skew × WAN bandwidth, aware vs blind vs backlog) instead of the policy sweep")
		skews        = flag.String("skews", "0,0.5,1", "comma-separated skew values of the locality sweep")
		wans         = flag.String("wans", "0.5,2,8", "comma-separated WAN bandwidths (MB/s) of the locality sweep")
		scenarioPath = flag.String("scenario", "", "run one declarative scenario file; workload and storage flags become overrides of the spec")
		scenariosPat = flag.String("scenarios", "", "run every scenario file matching the glob and print the library results table")
		verbose      = flag.Bool("v", false, "print the per-grid dispatch and telemetry table per policy")
	)
	flag.Parse()

	if *scenariosPat != "" {
		scenarioTable(*scenariosPat)
		return
	}
	if *scenarioPath != "" {
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"grids", "wan", "wanlat", "pairs", "locality", "skews", "wans"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "federation: -%s cannot override a scenario; edit the spec's grids/links sections instead\n", name)
				os.Exit(2)
			}
		}
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
		if set["policies"] {
			if strings.Contains(*policies, ",") {
				fmt.Fprintln(os.Stderr, "federation: -policies with -scenario overrides the broker policy and takes exactly one name")
				os.Exit(2)
			}
			ov.Policy = policies
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
		runScenario(*scenarioPath, ov, *verbose)
		return
	}

	s := sweep{
		grids: *grids, tenants: *tenants, servs: *servs, items: *items,
		runtime: *runtime, fileMB: *fileMB, spread: *spread,
		seed: *seed, rebroker: *rebroker, skew: *skew,
		links: links(*wan, *wanLat, nil), wanStreams: *wanStreams,
		seCap: *seCap, minReplicas: *minRep,
	}
	ev, err := scenario.ParseEviction(*sePolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation: -se-policy:", err)
		os.Exit(2)
	}
	s.sePolicy = ev
	if *pairs != "" {
		lm, err := scenario.ParsePairs(*pairs, s.links)
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation: -pairs:", err)
			os.Exit(2)
		}
		s.links = lm
	}
	if *outage != "" {
		o, err := scenario.ParseOutage(*outage)
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation: -outage:", err)
			os.Exit(2)
		}
		s.outages = []federation.Outage{o}
	}
	if *seOutage != "" {
		o, err := scenario.ParseOutage(*seOutage)
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation: -se-outage:", err)
			os.Exit(2)
		}
		o.Storage = true
		s.outages = append(s.outages, o)
	}

	if *locality {
		localitySweep(s, *wanLat, *skews, *wans)
		return
	}

	var pols []federation.Policy
	for _, name := range strings.Split(*policies, ",") {
		p, err := scenario.ParsePolicy(strings.TrimSpace(name), s.grids)
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation:", err)
			os.Exit(2)
		}
		pols = append(pols, p)
	}

	fmt.Printf("federation sweep: %d tenants × %d-stage chains × %d items over %d heterogeneous grids (seed %d, rebroker %d, skew %.2f, wan %.1f MB/s, streams %d)\n",
		s.tenants, s.servs, s.items, s.grids, s.seed, s.rebroker, s.skew, *wan, s.wanStreams)
	for _, o := range s.outages {
		dim := "dark"
		if o.Storage {
			dim = "storage dark"
		}
		if o.For > 0 {
			fmt.Printf("outage: %s %s from %v to %v\n", o.Grid, dim, o.At, o.At+o.For)
		} else {
			fmt.Printf("outage: %s %s from %v (no recovery)\n", o.Grid, dim, o.At)
		}
	}
	if s.seCap > 0 {
		fmt.Printf("storage: %.0f MB per element, %s eviction, replication floor %d\n", s.seCap, *sePolicy, s.minReplicas)
	} else if s.minReplicas > 0 {
		fmt.Printf("storage: unlimited elements, replication floor %d\n", s.minReplicas)
	}
	fmt.Println()
	header("policy", 16)

	for _, policy := range pols {
		rep, fed := s.run(policy)
		row(policy.Name(), 16, rep, fed)
		if *verbose {
			printVerbose(fed)
		}
	}
}

// runScenario compiles and runs one spec file with CLI overrides applied.
func runScenario(path string, ov scenario.Overrides, verbose bool) {
	spec, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(2)
	}
	if err := ov.Apply(spec); err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(2)
	}
	eng := sim.NewEngine()
	w, err := scenario.Compile(eng, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
	if spec.Description != "" {
		fmt.Printf("scenario %s: %s\n", spec.Name, spec.Description)
	} else {
		fmt.Printf("scenario %s\n", spec.Name)
	}
	fmt.Printf("%d grids, %d tenants, seed %d\n\n", len(spec.GridNames()), spec.TenantCount(), spec.Seed)
	x, err := w.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
	header("scenario", 20)
	row(spec.Name, 20, x.Run(), w.Fed)
	if verbose {
		printVerbose(w.Fed)
	}
}

// scenarioTable runs every scenario matching the glob on a fresh engine
// and prints the library results table — the `make scenarios` sweep.
func scenarioTable(pattern string) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation: -scenarios:", err)
		os.Exit(2)
	}
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "federation: -scenarios: no files match %q\n", pattern)
		os.Exit(2)
	}
	sort.Strings(paths)
	fmt.Printf("scenario library: %d scenarios\n\n", len(paths))
	header("scenario", 20)
	for _, p := range paths {
		spec, err := scenario.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation:", err)
			os.Exit(1)
		}
		eng := sim.NewEngine()
		w, err := scenario.Compile(eng, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation:", err)
			os.Exit(1)
		}
		x, err := w.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation:", err)
			os.Exit(1)
		}
		row(spec.Name, 20, x.Run(), w.Fed)
	}
}

// header prints the results-table column header with the given label
// column.
func header(label string, width int) {
	fmt.Printf("%-*s %12s %12s %12s %6s %6s %10s %10s %10s %10s %5s %8s %6s\n",
		width, label, "span", "p50", "p95", "jobs", "failed", "resubmits", "wan_mb", "wan_wait", "evicted_mb", "lost", "restage", "grids")
}

// row aggregates one run into a results-table row: makespan percentiles
// across tenants, WAN bytes and waits actually paid, storage churn and
// replica-loss counts.
func row(label string, width int, rep *campaign.Report, fed *federation.Federation) {
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
	fmt.Printf("%-*s %12v %12v %12v %6d %6d %10d %10.0f %10v %10.0f %5d %8d %3d/%d\n",
		width, label, rep.Makespan.Round(time.Second),
		pct(ms, 50).Round(time.Second), pct(ms, 95).Round(time.Second),
		rep.Global.Jobs, rep.Global.Failed, rep.Global.Resubmits, wanMB,
		wanWait.Round(time.Second), evictedMB, lost, restage, used, fed.Size())
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

// links builds the sweep's link model: cross-grid fetches at the given
// bandwidth and latency, intra-grid free, listed -pairs priced as listed.
// A non-positive bandwidth means free cross-grid staging regardless of
// the latency flag — a latency-only WAN is not expressible from the CLI —
// and, with no pairs either, the advertised free-staging baseline
// (grid.LocalLinks).
func links(wanMBps float64, wanLat time.Duration, pairs map[grid.GridPair]grid.Link) *grid.Links {
	if wanMBps <= 0 {
		if len(pairs) == 0 {
			return grid.LocalLinks()
		}
		return &grid.Links{Pairs: pairs}
	}
	return &grid.Links{WAN: grid.Link{MBps: wanMBps, Latency: wanLat}, Pairs: pairs}
}

// run enacts the standard tenant load on a fresh federation under one
// policy.
func (s sweep) run(policy federation.Policy) (*campaign.Report, *federation.Federation) {
	eng := sim.NewEngine()
	fed, err := federation.New(eng, federation.Config{
		Grids:      federation.HeterogeneousSpecs(s.grids, s.seed),
		Policy:     policy,
		Rebroker:   s.rebroker,
		Links:      s.links,
		WANStreams: s.wanStreams,
		Outages:    s.outages,
		// Active storage: finite elements, eviction, k-replication repair.
		SECapacityMB: s.seCap,
		SEEviction:   s.sePolicy,
		MinReplicas:  s.minReplicas,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
	specs := make([]campaign.TenantSpec, s.tenants)
	for i := range specs {
		home := grid.Site{Grid: fed.GridName(i % s.grids)}
		specs[i] = campaign.TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Arrival: time.Duration(i) * s.spread,
			Opts:    mixes[i%len(mixes)],
			Build:   campaign.SyntheticChainPlaced(s.servs, s.items, s.runtime, s.fileMB, home, s.skew),
		}
	}
	x, err := campaign.StartSite(eng, campaign.OnFederation(fed), specs, campaign.Admission{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
	return x.Run(), fed
}

// localitySweep maps campaign span/p95 and WAN traffic over replica skew ×
// WAN bandwidth for the locality-aware ranked policy, its locality-blind
// control and least-backlog.
func localitySweep(s sweep, wanLat time.Duration, skews, wans string) {
	skewVals, err := scenario.ParseFloats(skews)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation: -skews:", err)
		os.Exit(2)
	}
	wanVals, err := scenario.ParseFloats(wans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "federation: -wans:", err)
		os.Exit(2)
	}
	pols := []federation.Policy{federation.Ranked(), federation.RankedLocalityBlind(), federation.LeastBacklog()}

	fmt.Printf("locality sweep: %d tenants × %d-stage chains × %d items over %d heterogeneous grids (seed %d, wanlat %v, streams %d)\n",
		s.tenants, s.servs, s.items, s.grids, s.seed, wanLat, s.wanStreams)
	// An inherited -outage applies to every cell; without a banner the
	// table would read as a clean locality experiment.
	for _, o := range s.outages {
		if o.For > 0 {
			fmt.Printf("outage: %s dark from %v to %v\n", o.Grid, o.At, o.At+o.For)
		} else {
			fmt.Printf("outage: %s dark from %v (no recovery)\n", o.Grid, o.At)
		}
	}
	fmt.Println()
	fmt.Printf("%-5s %-8s %-16s %12s %12s %10s %10s\n", "skew", "wanMBps", "policy", "span", "p95", "wan_mb", "wan_wait")
	for _, sk := range skewVals {
		for _, w := range wanVals {
			for _, pol := range pols {
				run := s
				// -pairs survive the sweep: the listed pairs stay fixed
				// while the swept bandwidth replaces only the WAN class
				// that prices unlisted pairs.
				run.skew, run.links = sk, links(w, wanLat, s.links.Pairs)
				rep, fed := run.run(pol)
				ms := make([]time.Duration, 0, len(rep.Tenants))
				for _, tr := range rep.Tenants {
					if tr.Err != nil {
						fmt.Fprintf(os.Stderr, "federation: %s: tenant %s: %v\n", pol.Name(), tr.Name, tr.Err)
						continue
					}
					ms = append(ms, tr.Makespan)
				}
				sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
				var wanMB float64
				var wanWait time.Duration
				for i := 0; i < fed.Size(); i++ {
					wanMB += fed.Grid(i).RemoteInMB()
					wanWait += fed.Grid(i).WANWait()
				}
				fmt.Printf("%-5.2f %-8.1f %-16s %12v %12v %10.0f %10v\n",
					sk, w, pol.Name(), rep.Makespan.Round(time.Second),
					pct(ms, 95).Round(time.Second), wanMB, wanWait.Round(time.Second))
			}
		}
	}
}

// pct returns the upper nearest-rank percentile of sorted durations.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)*p/100]
}
