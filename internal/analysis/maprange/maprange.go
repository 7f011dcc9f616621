// Package maprange implements the determinism analyzer that forbids
// ranging over Go maps inside simulation-critical packages.
//
// Go randomizes map iteration order per process, so any map range whose
// effect is order-sensitive — appending to a slice, emitting events,
// writing output — makes a simulated run irreproducible, and the repo's
// golden-fingerprint tests demand bit-identical replays. The analyzer
// resolves the ranged expression through go/types, so slices, arrays,
// strings, channels and integers range freely; only map types (and type
// parameters whose core type is a map) are flagged.
//
// A loop whose effect provably cannot depend on order (a commutative
// reduction, a set-membership fill) may be kept by annotating it:
//
//	//moteur:orderinvariant per-grid byte totals sum commutatively
//	for _, n := range wanBytes { total += n }
//
// The justification text is mandatory — an empty reason is itself a
// finding — and a directive not attached to a map range is reported as
// stale so annotations cannot outlive the code they excuse.
package maprange

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// DefaultCritical reports whether pkgPath is one of the simulation-
// critical packages in which map iteration is policed: the event engine,
// the grid model, the federation broker, the campaign layer and the
// enactor core. Everything those packages do can leak into event order,
// golden fingerprints, or replayed statistics.
func DefaultCritical(pkgPath string) bool {
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

// Analyzer is the maprange check gated on DefaultCritical.
var Analyzer = New(DefaultCritical)

// New builds a maprange analyzer with a custom package gate; the
// fixture tests use this to point the check at testdata packages.
func New(critical func(pkgPath string) bool) *analysis.Analyzer {
	a := &analysis.Analyzer{Name: "maprange"}
	a.Run = func(pass *analysis.Pass) error {
		if !critical(pass.Pkg.Path()) {
			return nil
		}
		for _, file := range pass.Files {
			checkFile(pass, file)
		}
		return nil
	}
	return a
}

// checkFile walks one file, binding //moteur:orderinvariant directives
// to the map-range statements they justify and reporting unjustified
// ranges, empty justifications, and stale directives.
func checkFile(pass *analysis.Pass, file *ast.File) {
	byLine := map[int]*analysis.Directive{}
	used := map[*analysis.Directive]bool{}
	dirs := analysis.Directives(pass.Fset, file)
	for i := range dirs {
		if dirs[i].Name == analysis.OrderInvariantDirective {
			byLine[dirs[i].Line] = &dirs[i]
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !rangesOverMap(pass, rs) {
			return true
		}
		line := pass.Fset.Position(rs.Pos()).Line
		dir := byLine[line]
		if dir == nil {
			dir = byLine[line-1]
		}
		switch {
		case dir == nil:
			pass.Reportf(rs.Pos(), "range over map %s: iteration order is randomized and breaks deterministic replay; sort the keys or annotate with //moteur:orderinvariant <reason>", types.ExprString(rs.X))
		case dir.Reason == "":
			used[dir] = true
			pass.Reportf(rs.Pos(), "map range excused by //moteur:orderinvariant needs a non-empty justification")
		default:
			used[dir] = true
		}
		return true
	})
	// A directive that no map range consumed is stale: either the loop
	// was rewritten (sorted keys range over a slice) or it was placed
	// wrong; both deserve a finding so excuses cannot rot in place.
	for i := range dirs {
		d := &dirs[i]
		if d.Name == analysis.OrderInvariantDirective && byLine[d.Line] == d && !used[d] {
			pass.Reportf(d.Pos, "stale //moteur:orderinvariant: no map range on this or the next line")
		}
	}
}

// rangesOverMap reports whether the range statement iterates a map,
// resolved through the type checker so named map types count and
// slices/channels/strings do not.
func rangesOverMap(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tp, ok := types.Unalias(t).(*types.TypeParam); ok {
		// A generic range is order-sensitive as soon as any term in the
		// constraint is a map.
		isMap := false
		for u := range typeTerms(tp) {
			if _, ok := u.Underlying().(*types.Map); ok {
				isMap = true
			}
		}
		return isMap
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// typeTerms yields the type terms of a type parameter's constraint.
func typeTerms(tp *types.TypeParam) map[types.Type]bool {
	out := map[types.Type]bool{}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return out
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		collectTerms(iface.EmbeddedType(i), out)
	}
	return out
}

// collectTerms expands unions and named constraint interfaces into the
// accumulating term set.
func collectTerms(t types.Type, out map[types.Type]bool) {
	switch u := t.(type) {
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			out[u.Term(i).Type()] = true
		}
	case *types.Named:
		collectTerms(u.Underlying(), out)
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			collectTerms(u.EmbeddedType(i), out)
		}
	default:
		out[t] = true
	}
}
