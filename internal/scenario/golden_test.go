package scenario

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sim"
)

// libraryPaths returns every spec of the shipped scenario library,
// failing the test if the library shrank below its advertised size.
func libraryPaths(t *testing.T) []string {
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
// engine, failing on any tenant error, and returns the run fingerprint.
func runLibrarySpec(t *testing.T, path string) uint64 {
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
	return Fingerprint(rep, w.Fed)
}

// TestScenarioLibraryDeterminism is the per-scenario golden gate: every
// spec of the shipped library is compiled and run twice from a fresh
// Load each time, and the two runs must produce bit-identical
// fingerprints (per-tenant makespans, per-grid telemetry, WAN and
// storage churn). A spec file can never go nondeterministic silently.
func TestScenarioLibraryDeterminism(t *testing.T) {
	for _, path := range libraryPaths(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			first := runLibrarySpec(t, path)
			if again := runLibrarySpec(t, path); again != first {
				t.Fatalf("scenario not deterministic: %#x vs %#x", first, again)
			}
		})
	}
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
