package maprange

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestMapRange runs the analyzer over the critical fixture (map ranges,
// justifications, empty reasons, stale directives, a generic map
// constraint, and slice/string/channel/int negatives) and the
// non-critical fixture, which must stay silent.
func TestMapRange(t *testing.T) {
	a := New(func(pkgPath string) bool { return pkgPath == "mapcrit" })
	analysistest.Run(t, "../testdata", "mapcrit", a)
	analysistest.Run(t, "../testdata", "mapclean", a)
}

// TestDefaultCritical pins the gated package set.
func TestDefaultCritical(t *testing.T) {
	for _, p := range []string{
		"repro/internal/sim",
		"repro/internal/grid",
		"repro/internal/federation",
		"repro/internal/campaign",
		"repro/internal/core",
	} {
		if !DefaultCritical(p) {
			t.Errorf("DefaultCritical(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"repro",
		"repro/internal/rng",
		"repro/internal/metrics",
		"repro/internal/grid/sub", // only the exact packages are gated
	} {
		if DefaultCritical(p) {
			t.Errorf("DefaultCritical(%q) = true, want false", p)
		}
	}
}
