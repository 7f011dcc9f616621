// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the simulated outputs against pinned
// values and conservation audits, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 8.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a separate traced run.
// Every measured repetition runs in a fresh child process (this binary
// re-executed with -child), so set-up time and peak memory are those of
// a fresh process. Build and run it through perfbench/run.sh from the
// repository root; README.md in this directory describes the workloads
// and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported metric definition.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0 for every workload.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, reported with -trace 1 for every
// workload (zero where a workload does not reach the layer, or where the
// layer is inside moteurd and out of the benchmark's reach).
var perLayer = []metric{
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"sim.events", "count"},
	{"sim.step_self_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.peak_pending", "count"},
	{"sim.span_s", "s"},
	{"campaign.start_s", "s"},
	{"campaign.report_s", "s"},
	{"campaign.tenant_stats_s", "s"},
	{"campaign.tenant_stats_calls", "count"},
	{"core.build_s", "s"},
	{"core.done_self_s", "s"},
	{"broker.submits", "count"},
	{"broker.submit_s", "s"},
	{"broker.submit_ns_mean", "ns"},
	{"broker.rebroker_ratio", "ratio"},
	{"storage.repairs", "count"},
	{"storage.repaired_mb", "MB"},
	{"storage.evictions", "count"},
	{"storage.evicted_mb", "MB"},
	{"storage.peak_mb", "MB"},
	{"catalog.link_calls", "count"},
	{"catalog.link_s", "s"},
	{"grid.restages", "count"},
	{"grid.attempts", "count"},
	{"grid.success_ratio", "ratio"},
	{"grid.submit_phase_s", "s"},
	{"grid.queue_phase_s", "s"},
	{"grid.transfer_phase_s", "s"},
	{"grid.run_phase_s", "s"},
	{"fabric.grants", "count"},
	{"fabric.peak_waiting", "count"},
	{"fabric.wan_wait_s", "s"},
	{"daemon.service_p50_ms", "ms"},
	{"daemon.service_p99_ms", "ms"},
	{"daemon.scrape_p50_ms", "ms"},
	{"daemon.scrape_p90_ms", "ms"},
	{"daemon.pace_lag_s", "s"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.self_coverage", "ratio"},
}

// setupReps is the least number of fresh-process boots a run measures
// set-up time over.
const setupReps = 11

func main() {
	var (
		root     = flag.String("root", ".", "repository root (scenario files are read relative to it)")
		name     = flag.String("workload", "", "workload name: metropolis, storage-churn, wan-deep, daemon-submit, or all (one line each)")
		seed     = flag.Uint64("seed", 0, "workload seed, applied through scenario.Overrides{Seed} (0: the workload's spec seed, where its pin applies)")
		seconds  = flag.Float64("seconds", 20, "how long one run measures, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		child    = flag.String("child", "", "internal: run one repetition in this process (closed, daemon or daemon-setup)")
		childTrc = flag.Bool("child-traced", false, "internal: trace the child repetition")
	)
	flag.Parse()
	if *child != "" {
		w, ok := workloads[*name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *name)
			os.Exit(2)
		}
		if err := childMain(*child, *root, w, *seed, *childTrc); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = order
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", n, order)
			os.Exit(2)
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	allCorrect := true
	for _, n := range names {
		w := workloads[n]
		s := *seed
		if s == 0 {
			s = w.seed
		}
		out, err := runParent(*root, w, s, window, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		allCorrect = allCorrect && out.Correct
		var res any = out.final()
		if len(names) > 1 {
			res = map[string]any{"workload": n, "result": res}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if len(names) > 1 && !allCorrect {
		os.Exit(1)
	}
}

// childMain runs one repetition in this process and prints its result as
// JSON on standard output.
func childMain(kind, root string, w workload, seed uint64, traced bool) error {
	switch kind {
	case "closed", "closed-setup":
		res, tr, err := runClosed(root, w, seed, traced, kind == "closed-setup")
		if err != nil {
			return err
		}
		if err := writeTrace(root, w, seed, tr); err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case "daemon", "daemon-setup":
		return daemonChildMain(root, w, seed, traced, kind == "daemon-setup")
	}
	return fmt.Errorf("unknown child kind %q", kind)
}

// writeTrace stores a traced child's spans under .bench_build/traces,
// after every timing of the run was taken. A nil tracer writes nothing.
func writeTrace(root string, w workload, seed uint64, tr *tracer) error {
	if tr == nil {
		return nil
	}
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", w.name, seed)))
}

// outcome is a finished run: what the last line reports plus the detail
// kept in the results record.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Env       map[string]string  `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples keeps every repetition's value of each metric that is a
	// median over repetitions, for spreads.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Outcomes are the simulated outcomes of the closed repetitions, by
	// seed: what a pin for that seed would hold.
	Outcomes map[string]pin `json:"outcomes,omitempty"`
	// SubmitTail is daemon-submit's latency at the highest percentile
	// that has at least ten requests beyond it.
	SubmitTail string   `json:"submit_tail,omitempty"`
	Problems   []string `json:"problems,omitempty"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the last-line JSON object.
func (o *outcome) final() any {
	defs := endToEnd
	if o.Traced {
		defs = perLayer
	}
	m := make(map[string]reported, len(defs))
	for _, d := range defs {
		v := o.Metrics[d.name]
		// JSON has no infinities: a latency percentile that lands on a
		// failed request (+Inf) reads -1, and the run is already failed.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1
		}
		m[d.name] = reported{Value: v, Unit: d.unit}
	}
	return struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, m}
}

// runParent measures one run of the workload and records it.
func runParent(root string, w workload, seed uint64, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{
		Workload: w.name, Seed: seed, Traced: traced, Env: environment(root),
		Metrics: map[string]float64{}, Samples: map[string][]float64{}, Outcomes: map[string]pin{},
	}
	var err error
	if w.daemon {
		err = runDaemonWorkload(o, root, w, seed, window, traced)
	} else {
		err = runClosedWorkload(o, root, w, seed, window, traced)
	}
	if err != nil {
		return nil, err
	}
	o.Correct = o.Failed == 0 && len(o.Problems) == 0
	report(o)
	if err := record(root, o); err != nil {
		return nil, err
	}
	return o, nil
}

// childCmd prepares this binary as a child process running one
// repetition. The child is killed if this process dies first.
func childCmd(root string, w workload, seed uint64, kind string, traced bool) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-root", root, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-child", kind, "-child-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// runChild runs one repetition in a child process and decodes the JSON
// result it prints; it also returns the child's peak resident set in MB.
func runChild[T any](root string, w workload, seed uint64, kind string, traced bool) (*T, float64, error) {
	cmd, err := childCmd(root, w, seed, kind, traced)
	if err != nil {
		return nil, 0, err
	}
	outb, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s child for %s seed %d: %w", kind, w.name, seed, err)
	}
	var r T
	if err := json.Unmarshal(outb, &r); err != nil {
		return nil, 0, fmt.Errorf("decoding %s child result: %w", kind, err)
	}
	return &r, maxRSS(cmd.ProcessState), nil
}

// maxRSS reads a finished child's peak resident set, in MB.
func maxRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runClosedWorkload repeats fresh-process closed runs until the window
// has passed (and every seed of the workload has run at least twice),
// tops set-up samples up to setupReps with set-up-only children, then
// reports medians. Traced, it runs the base seed untraced twice
// within half the window, then once traced, and reports the per-layer
// table from the traced run.
func runClosedWorkload(o *outcome, root string, w workload, seed uint64, window time.Duration, traced bool) error {
	seeds, minReps := w.seeds, 2*w.seeds
	if traced {
		seeds, minReps, window = 1, 2, window/2
	}
	var reps []*closedResult
	var rss []float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < window; i++ {
		r, mb, err := runChild[closedResult](root, w, seed+uint64(i%seeds), "closed", false)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		rss = append(rss, mb)
	}
	o.Attempted = len(reps)
	for _, r := range reps {
		if checkClosed(o, w, r) {
			o.Failed++
		}
	}

	col := func(f func(*closedResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	samples := map[string][]float64{
		"wall_s":        col(func(r *closedResult) float64 { return r.WallS }),
		"runtime.cpu_s": col(func(r *closedResult) float64 { return r.CPUS }),
		"setup_s":       col(func(r *closedResult) float64 { return r.SetupS }),
		"peak_rss_mb":   rss,
		"submit_p50_ms": col(func(r *closedResult) float64 { return r.SubmitP50Ms }),
		"submit_p99_ms": col(func(r *closedResult) float64 { return r.SubmitP99Ms }),
	}
	for _, k := range []string{"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_ms"} {
		samples[k] = col(func(r *closedResult) float64 { return r.Host[k] })
	}
	for i := len(reps); i < setupReps; i++ {
		r, _, err := runChild[closedResult](root, w, seed, "closed-setup", false)
		if err != nil {
			return err
		}
		samples["setup_s"] = append(samples["setup_s"], r.SetupS)
	}
	for k, xs := range samples {
		o.Samples[k] = xs
		o.Metrics[k] = median(xs)
	}
	if !traced {
		return nil
	}

	t, _, err := runChild[closedResult](root, w, seed, "closed", true)
	if err != nil {
		return err
	}
	o.Attempted++
	if checkClosed(o, w, t) {
		o.Failed++
	}
	// Tracing must change no behaviour: the traced run's counts are those
	// of the untraced runs of the same seed.
	for k, v := range reps[0].Counts {
		if t.Counts[k] != v {
			o.Problems = append(o.Problems, fmt.Sprintf("tracing changed %s: untraced %v, traced %v", k, v, t.Counts[k]))
		}
	}
	for k, v := range t.Counts {
		o.Metrics[k] = v
	}
	for k, v := range t.Host {
		if !strings.HasPrefix(k, "runtime.") {
			o.Metrics[k] = v
		}
	}
	o.Metrics["trace.overhead_s"] = t.WallS - median(samples["wall_s"])
	cov := t.Host["trace.self_sum_s"] / t.WallS
	o.Metrics["trace.self_coverage"] = cov
	if math.Abs(cov-1) > 0.05 {
		o.Problems = append(o.Problems, fmt.Sprintf("traced self times add up to %.1f%% of the traced wall time", 100*cov))
	}
	return nil
}

// checkClosed applies the workload's pin to one closed repetition and
// requires every repetition of a seed to reach the same outcome as the
// first one recorded in o.Outcomes. It records problems on o and reports
// whether the repetition failed.
func checkClosed(o *outcome, w workload, r *closedResult) bool {
	bad := len(r.Problems) > 0
	for _, p := range r.Problems {
		o.Problems = append(o.Problems, fmt.Sprintf("%s seed %d: %s", w.name, r.Seed, p))
	}
	if problem, pinned := w.checkPin(r.Seed, r.Pin); pinned && problem != "" {
		o.Problems = append(o.Problems, problem)
		bad = true
	}
	key := strconv.FormatUint(r.Seed, 10)
	if first, ok := o.Outcomes[key]; !ok {
		o.Outcomes[key] = r.Pin
	} else if first != r.Pin {
		o.Problems = append(o.Problems, fmt.Sprintf("%s seed %d: two runs disagree:\n  %s\n  %s", w.name, r.Seed, first, r.Pin))
		bad = true
	}
	return bad
}

// runDaemonWorkload measures daemon-submit: setupReps-1 set-up-only
// boots, then one serving daemon child under the open-loop load for the
// window. Traced, the serving child runs with the build and link probes.
func runDaemonWorkload(o *outcome, root string, w workload, seed uint64, window time.Duration, traced bool) error {
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		r, _, err := runChild[daemonResult](root, w, seed, "daemon-setup", false)
		if err != nil {
			return err
		}
		setups = append(setups, r.SetupS)
	}

	cmd, err := childCmd(root, w, seed, "daemon", traced)
	if err != nil {
		return err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	// Whatever happens below, the child is stopped and waited for.
	waited := false
	defer func() {
		if !waited {
			stdin.Close()
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("daemon child did not report ready: %w", err)
	}
	var ready daemonReady
	if err := json.Unmarshal(line, &ready); err != nil {
		return fmt.Errorf("decoding daemon ready line: %w", err)
	}
	setups = append(setups, ready.SetupS)
	started := time.Unix(0, ready.StartUnixNs)

	load := generate(ready.Addr, started, window, 60*time.Second)

	stdin.Close()
	rest, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	werr := cmd.Wait()
	waited = true
	if werr != nil {
		return fmt.Errorf("daemon child: %w", werr)
	}
	var res daemonResult
	if err := json.Unmarshal(rest, &res); err != nil {
		return fmt.Errorf("decoding daemon child result: %w", err)
	}

	acc := account(load.submits)
	scr := account(load.scrapes)
	o.Attempted = len(load.submits) + len(load.scrapes)
	o.Failed = acc.failed + scr.failed
	o.Problems = append(o.Problems, load.problems...)
	o.Problems = append(o.Problems, res.Problems...)
	accepted := 0
	for _, accs := range load.accepted {
		accepted += len(accs)
	}
	if accepted != len(res.LoadJobs) {
		o.Problems = append(o.Problems, fmt.Sprintf("%d submissions accepted but the daemon records %d jobs for %s", accepted, len(res.LoadJobs), loadTenant))
	}
	o.Problems = append(o.Problems, checkIDs(load.accepted[:], res.LoadJobs)...)

	o.Samples["setup_s"] = setups
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["peak_rss_mb"] = maxRSS(cmd.ProcessState)
	if !load.campaignDone.IsZero() {
		o.Metrics["wall_s"] = load.campaignDone.Sub(started).Seconds()
	}
	pct := func(xs []float64, p float64) float64 { v, _ := percentile(xs, p); return v }
	o.Metrics["submit_p50_ms"] = pct(acc.latency, 50)
	o.Metrics["submit_p99_ms"] = pct(acc.latency, 99)
	o.Metrics["daemon.service_p50_ms"] = pct(acc.service, 50)
	o.Metrics["daemon.service_p99_ms"] = pct(acc.service, 99)
	o.Metrics["loadgen.late_p50_ms"] = pct(acc.late, 50)
	o.Metrics["loadgen.late_p99_ms"] = pct(acc.late, 99)
	o.Metrics["daemon.scrape_p50_ms"] = pct(scr.latency, 50)
	o.Metrics["daemon.scrape_p90_ms"] = pct(scr.latency, 90)
	o.Metrics["daemon.pace_lag_s"] = median(load.paceLag)
	o.Metrics["sim.peak_pending"] = float64(load.peakPending)
	for k, v := range res.Counts {
		o.Metrics[k] = v
	}
	for k, v := range res.Host {
		o.Metrics[k] = v
	}
	tp, tv, tn, tok := tail(acc.latency)
	o.SubmitTail = fmt.Sprintf("p%g = %.3f ms over %d requests (resolved: %v)", tp, tv, tn, tok)
	return nil
}

// environment records where a result was measured.
func environment(root string) map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(root),
	}
}

// gitSHA reads the checked-out commit from .git without running git
// ("unknown" outside a git checkout).
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// record keeps the full outcome, environment and per-repetition samples
// included, under .bench_build/results.
func record(root string, o *outcome) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.Traced {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, o.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// report prints a human summary to standard error.
func report(o *outcome) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d trace %v: nproc %s GOMAXPROCS %s %s git %s\n",
		o.Workload, o.Seed, o.Traced, o.Env["nproc"], o.Env["gomaxprocs"], o.Env["go"], o.Env["git_sha"])
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("  %-28s %14.6g", k, o.Metrics[k])
		if xs := o.Samples[k]; len(xs) > 1 {
			line += fmt.Sprintf("   spread %5.1f%% n=%d", 100*spread(xs), len(xs))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if o.SubmitTail != "" {
		fmt.Fprintf(os.Stderr, "  submit latency tail: %s\n", o.SubmitTail)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(os.Stderr, "  PROBLEM: %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "  correct %v attempted %d failed %d\n", o.Correct, o.Attempted, o.Failed)
}
