package scenario

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// update rewrites testdata/library.golden from the current runs instead
// of checking against it. A moved pin is a behaviour change: regenerate
// only on purpose, and say why in the change log.
var update = flag.Bool("update", false, "rewrite the scenario library fingerprint golden")

// libraryGolden pins every library spec's run fingerprint, one
// "file fingerprint" line each.
const libraryGolden = "testdata/library.golden"

// readLibraryGolden loads the pinned fingerprints by spec file name.
func readLibraryGolden(t testing.TB) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(libraryGolden)
	if err != nil {
		t.Fatal(err)
	}
	pins := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, fp, ok := strings.Cut(line, " ")
		v, err := strconv.ParseUint(strings.TrimSpace(fp), 0, 64)
		if !ok || err != nil {
			t.Fatalf("%s: malformed line %q", libraryGolden, line)
		}
		pins[name] = v
	}
	return pins
}

// writeLibraryGolden records the fingerprints in file-name order.
func writeLibraryGolden(t testing.TB, pins map[string]uint64) {
	t.Helper()
	names := make([]string, 0, len(pins))
	for name := range pins {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# Scenario library run fingerprints (scenario.Fingerprint), one per\n")
	b.WriteString("# scenarios/*.json file. Regenerate only for an intentional behaviour\n")
	b.WriteString("# change: go test ./internal/scenario -run TestScenarioLibraryDeterminism -update\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s %#016x\n", name, pins[name])
	}
	if err := os.WriteFile(libraryGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// libraryPaths returns every spec of the shipped scenario library,
// failing the test if the library shrank below its advertised size.
func libraryPaths(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("scenario library has %d specs, want at least 6", len(paths))
	}
	sort.Strings(paths)
	return paths
}

// scaleSpec reports whether a spec belongs to the scale tier of the
// library — tens of thousands of jobs, seconds of wall time per run.
// Scale specs keep the full two-run determinism golden in the default
// suite, but are skipped in short mode and under the race detector: the
// campaign path they exercise is single-goroutine, so racing them buys
// no coverage the small specs don't already provide, at ~100s a spec.
func scaleSpec(spec *Spec) bool {
	jobs := 0
	for _, g := range spec.Tenants {
		jobs += g.Count * g.Workload.Stages * g.Workload.Items
	}
	return jobs >= 50000
}

// runLibrarySpec loads, compiles and runs one library spec on a fresh
// engine, failing on any tenant error, and returns the run fingerprint
// and the campaign report.
func runLibrarySpec(t testing.TB, path string) (uint64, *campaign.Report) {
	t.Helper()
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if scaleSpec(spec) {
		if testing.Short() {
			t.Skip("scale spec skipped in short mode")
		}
		if raceEnabled {
			t.Skip("scale spec skipped under the race detector (single-goroutine path, covered by small specs)")
		}
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
	rep := x.Run()
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
	}
	return Fingerprint(rep, w.Fed), rep
}

// TestScenarioLibraryDeterminism is the per-scenario golden gate: every
// spec of the shipped library is compiled and run twice from a fresh
// Load each time, the two runs must produce bit-identical fingerprints
// (per-tenant makespans, per-grid telemetry, WAN and storage churn), and
// the fingerprint must equal the spec's pin in testdata/library.golden.
// A spec can neither go nondeterministic nor drift silently; -update
// re-records the pins.
func TestScenarioLibraryDeterminism(t *testing.T) {
	pins := make(map[string]uint64)
	if !*update {
		pins = readLibraryGolden(t)
	}
	paths := libraryPaths(t)
	for _, path := range paths {
		base := filepath.Base(path)
		t.Run(base, func(t *testing.T) {
			first, _ := runLibrarySpec(t, path)
			if again, _ := runLibrarySpec(t, path); again != first {
				t.Fatalf("scenario not deterministic: %#x vs %#x", first, again)
			}
			if *update {
				pins[base] = first
				return
			}
			want, ok := pins[base]
			if !ok {
				t.Fatalf("%s has no pin in %s (run with -update)", base, libraryGolden)
			}
			if first != want {
				t.Fatalf("fingerprint %#016x, pinned %#016x: behaviour drifted (re-pin with -update only on purpose)", first, want)
			}
		})
	}
	if *update {
		if len(pins) != len(paths) {
			t.Fatalf("-update needs every spec to run (got %d of %d; scale specs skip under -short and -race)", len(pins), len(paths))
		}
		writeLibraryGolden(t, pins)
		return
	}
	if len(pins) != len(paths) {
		t.Errorf("%s pins %d specs, the library has %d", libraryGolden, len(pins), len(paths))
	}
}

// BenchmarkScenarioLibrary times every spec of the shipped library, one
// sub-benchmark per file. Each iteration compiles, starts and runs the
// spec and fails unless its fingerprint equals the spec's pin, so every
// timing is of the pinned computation. jobs reports the terminal job
// count and sim_s the campaign span.
func BenchmarkScenarioLibrary(b *testing.B) {
	pins := readLibraryGolden(b)
	for _, path := range libraryPaths(b) {
		b.Run(filepath.Base(path), func(b *testing.B) { benchLibrarySpec(b, path, pins) })
	}
}

// benchLibrarySpec is one BenchmarkScenarioLibrary case.
func benchLibrarySpec(b *testing.B, path string, pins map[string]uint64) {
	want := pins[filepath.Base(path)]
	var rep *campaign.Report
	for i := 0; i < b.N; i++ {
		var fp uint64
		if fp, rep = runLibrarySpec(b, path); fp != want {
			b.Fatalf("fingerprint %#016x, pinned %#016x: behaviour drifted", fp, want)
		}
	}
	b.ReportMetric(float64(rep.Global.Jobs+rep.Global.Failed), "jobs")
	b.ReportMetric(rep.Makespan.Seconds(), "sim_s")
}

// TestScenarioLibraryAllocBudget is the allocation regression gate of
// the federation hot paths, end to end from spec load to settlement: it
// runs BenchmarkScenarioLibrary's contended-wan.json case and fails
// above 64 heap allocations per job (58 measured, plus 10% headroom).
func TestScenarioLibraryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate runs a full library benchmark case")
	}
	pins := readLibraryGolden(t)
	res := testing.Benchmark(func(b *testing.B) {
		benchLibrarySpec(b, "../../scenarios/contended-wan.json", pins)
	})
	jobs := res.Extra["jobs"]
	if jobs <= 0 {
		t.Fatalf("benchmark reported no jobs metric: %v", res)
	}
	const budget = 64.0
	perJob := float64(res.AllocsPerOp()) / jobs
	if perJob > budget {
		t.Fatalf("contended-wan allocates %.1f objects per job (budget %.0f): the hot-path pooling regressed", perJob, budget)
	}
	t.Logf("contended-wan: %.1f allocs/job (budget %.0f)", perJob, budget)
}

// TestScenarioLibraryLoads pins the library's metadata: every spec
// parses, validates, and names itself after its file — so the sweep
// table rows and the file listing stay in one-to-one correspondence.
func TestScenarioLibraryLoads(t *testing.T) {
	for _, path := range libraryPaths(t) {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		if want := spec.Name + ".json"; base != want {
			t.Errorf("%s: spec name %q does not match the file name", base, spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("%s: spec has no description for the library table", base)
		}
	}
}
