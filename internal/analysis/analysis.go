// Package analysis is a minimal, dependency-free analogue of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// with a Run function, a Pass hands it one type-checked package, and
// diagnostics are reported through the Pass. It exists because this repo
// builds offline against the standard library only, yet wants real
// static enforcement of its determinism invariants (see the maprange,
// simtime and exporteddoc subpackages and cmd/moteurvet, the driver that
// runs them over the whole program).
//
// The subset implemented here is deliberately small: no facts, no
// modular result passing, no suggested fixes. Each analyzer sees one
// package (syntax + types) and reports positioned diagnostics; drivers
// sort and print them. Test files never reach an analyzer: the loaders
// read only a package's non-test sources, so tests may iterate maps or
// read the wall clock without affecting replay fingerprints.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a short name used as the
// diagnostic prefix and the Run function applied to every package the
// driver loads.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// Go identifier.
	Name string
	// Run applies the check to one package and reports findings through
	// pass.Report. A non-nil error aborts the whole driver run and is
	// reserved for internal failures, not findings.
	Run func(*Pass) error
}

// Diagnostic is one finding at a position inside the analyzed package.
type Diagnostic struct {
	// Pos locates the finding in the Pass's FileSet.
	Pos token.Pos
	// Message is the human-readable finding, without position prefix.
	Message string
}

// Pass carries one type-checked package through an Analyzer's Run
// function, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Fset maps token.Pos values of Files to file positions.
	Fset *token.FileSet
	// Files is the package's parsed non-test syntax, including comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package is one type-checked package of a load.
type Package struct {
	// Files is the package's parsed non-test syntax, including comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records type and object resolution for Files.
	Info *types.Info
}

// Finding is one diagnostic resolved to a concrete file position and
// tagged with the analyzer that produced it.
type Finding struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Position locates the finding in the analyzed sources.
	Position token.Position
	// Message is the diagnostic text.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// SortFindings orders findings by position, then analyzer, then
// message, so driver output does not depend on analyzer-internal
// iteration order.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
}
