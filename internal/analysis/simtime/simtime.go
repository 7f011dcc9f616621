// Package simtime implements the determinism analyzer that keeps wall-
// clock time and ambient randomness out of simulation-critical packages.
//
// All time in the simulator flows through sim.Engine's virtual clock and
// all randomness through internal/rng's seeded xoshiro streams, so that a
// run is a pure function of its inputs and its fingerprint replays
// bit-identically across machines, runs and Go releases. The analyzer
// therefore forbids, inside the critical packages:
//
//   - the wall-clock functions of package time (time.Now, time.Since,
//     time.Until, time.Sleep, time.After, time.AfterFunc, time.Tick,
//     time.NewTimer, time.NewTicker) — time.Duration and time.Time as
//     plain values remain fine;
//   - importing math/rand or math/rand/v2 at all: even explicitly seeded
//     generators change their streams across Go releases, which is why
//     internal/rng exists;
//   - fmt print calls inside a range over a map, where iteration order
//     leaks straight into observable output even when the loop carries a
//     //moteur:orderinvariant annotation for the maprange analyzer.
package simtime

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// bannedTime is the set of package time functions that read or wait on
// the wall clock.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedImports maps forbidden import paths to the replacement the
// diagnostic should point at.
var bannedImports = map[string]string{
	"math/rand":    "internal/rng",
	"math/rand/v2": "internal/rng",
}

// Analyzer is the simtime check gated on the same critical-package set
// as maprange.
var Analyzer = New(nil)

// New builds a simtime analyzer with a custom package gate (nil means
// the default simulation-critical set shared with maprange).
func New(critical func(pkgPath string) bool) *analysis.Analyzer {
	a := &analysis.Analyzer{Name: "simtime"}
	a.Run = func(pass *analysis.Pass) error {
		gate := critical
		if gate == nil {
			gate = defaultCritical
		}
		if !gate(pass.Pkg.Path()) {
			return nil
		}
		for _, file := range pass.Files {
			checkFile(pass, file)
		}
		return nil
	}
	return a
}

// defaultCritical mirrors maprange.DefaultCritical; duplicated here to
// keep the two analyzers independently importable.
func defaultCritical(pkgPath string) bool {
	for _, p := range []string{
		"repro/internal/sim",
		"repro/internal/grid",
		"repro/internal/federation",
		"repro/internal/campaign",
		"repro/internal/core",
		"repro/internal/scenario",
	} {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// checkFile reports banned imports, wall-clock calls, and fmt prints
// nested inside map ranges for one source file.
func checkFile(pass *analysis.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if repl, ok := bannedImports[path]; ok {
			pass.Reportf(imp.Pos(), "import of %s in a simulation-critical package: streams vary across Go releases; use %s", path, repl)
		}
	}
	var mapRangeDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if fn := timeFunc(pass, n); fn != "" {
				pass.Reportf(n.Pos(), "call to time.%s in a simulation-critical package: wall-clock time breaks deterministic replay; all time must flow through sim.Engine", fn)
			}
		case *ast.RangeStmt:
			if rangesOverMap(pass, n) {
				// Walk the loop parts manually so the body is inspected
				// with the map-range context switched on.
				if n.Key != nil {
					ast.Inspect(n.Key, walk)
				}
				if n.Value != nil {
					ast.Inspect(n.Value, walk)
				}
				ast.Inspect(n.X, walk)
				mapRangeDepth++
				ast.Inspect(n.Body, walk)
				mapRangeDepth--
				return false
			}
		case *ast.CallExpr:
			if mapRangeDepth > 0 {
				if name := fmtPrint(pass, n); name != "" {
					pass.Reportf(n.Pos(), "fmt.%s inside a range over a map: iteration order leaks into output; collect and sort before printing", name)
				}
			}
		}
		return true
	}
	ast.Inspect(file, walk)
}

// timeFunc returns the banned time-package function name sel refers to,
// or "" when sel is harmless.
func timeFunc(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	if bannedTime[fn.Name()] {
		return fn.Name()
	}
	return ""
}

// fmtPrint returns the fmt print-family function name the call invokes,
// or "" when the call is not an fmt print.
func fmtPrint(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return ""
	}
	// Sprint-family calls are pure and often order-invariant (e.g.
	// formatting a value stored back under the same key), so only calls
	// that actually emit output are flagged.
	switch fn.Name() {
	case "Print", "Printf", "Println",
		"Fprint", "Fprintf", "Fprintln":
		return fn.Name()
	}
	return ""
}

// rangesOverMap reports whether the range statement iterates a map,
// resolved through the type checker.
func rangesOverMap(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
