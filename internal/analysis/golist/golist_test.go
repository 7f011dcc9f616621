package golist_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/exporteddoc"
	"repro/internal/analysis/maprange"
)

// TestCheck loads a fixture module whose main reaches everything and
// checks that the planted map range and the missing doc comment are
// each reported on their own line, and nothing else is.
func TestCheck(t *testing.T) {
	gate := func(pkgPath string) bool { return pkgPath == "fixture/internal/sim" }
	analysistest.Run(t, "../testdata", "golist", exporteddoc.New(gate), maprange.New(gate))
}
