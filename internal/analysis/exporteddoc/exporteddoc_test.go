package exporteddoc

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestExportedDoc runs the analyzer over the undocumented fixture
// (missing package doc, missing and misprefixed identifier docs, the
// unexported-receiver and block-comment exemptions) and the fully
// documented fixture, which must stay silent.
func TestExportedDoc(t *testing.T) {
	a := New(func(pkgPath string) bool { return true })
	analysistest.Run(t, "../testdata", "docbad", a)
	analysistest.Run(t, "../testdata", "docok", a)
}

// TestDefaultChecked pins the documented-surface gate: the root package
// and internal/ packages are in, cmd and testdata fixtures are out.
func TestDefaultChecked(t *testing.T) {
	for _, p := range []string{"repro", "repro/internal/grid", "repro/internal/analysis"} {
		if !DefaultChecked(p) {
			t.Errorf("DefaultChecked(%q) = false, want true", p)
		}
	}
	for _, p := range []string{"repro/cmd/moteur", "fmt", "docbad"} {
		if DefaultChecked(p) {
			t.Errorf("DefaultChecked(%q) = true, want false", p)
		}
	}
}
