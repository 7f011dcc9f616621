// Package exporteddoc implements the documentation analyzer: every
// exported identifier of the repo's library surface (the root package
// and every internal/ package) must carry a doc comment that begins with
// the identifier's name, modulo a leading article — the golint/revive
// "exported" rule, implemented on go/ast so CI needs no external linter.
//
// It replaces the reflection-free but test-bound internal/doccheck,
// which hard-coded five package directories; as an analyzer it rides the
// same driver as the determinism checks and covers every package the
// driver loads. Conventions preserved from doccheck: a documented
// const/var/type block covers its specs (a spec is only held to the
// prefix rule when it carries its own comment), methods on unexported
// types are exempt even when capitalized for interface satisfaction,
// and _test.go files are ignored. One new rule: each checked package
// must have a package doc comment on at least one file.
package exporteddoc

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// DefaultChecked reports whether pkgPath is part of the documented
// surface: the root package plus everything under internal/.
func DefaultChecked(pkgPath string) bool {
	return pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/internal/")
}

// Analyzer is the exporteddoc check gated on DefaultChecked.
var Analyzer = New(DefaultChecked)

// New builds an exporteddoc analyzer with a custom package gate; the
// fixture tests use this to point the check at testdata packages.
func New(checked func(pkgPath string) bool) *analysis.Analyzer {
	a := &analysis.Analyzer{Name: "exporteddoc"}
	a.Run = func(pass *analysis.Pass) error {
		if !checked(pass.Pkg.Path()) {
			return nil
		}
		files := slices.Clone(pass.Files)
		sort.Slice(files, func(i, j int) bool {
			return pass.Fset.Position(files[i].Pos()).Filename < pass.Fset.Position(files[j].Pos()).Filename
		})
		hasPkgDoc := false
		for _, f := range files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc && len(files) > 0 {
			pass.Reportf(files[0].Name.Pos(), "package %s has no package doc comment on any file", pass.Pkg.Name())
		}
		for _, f := range files {
			checkFile(pass, f)
		}
		return nil
	}
	return a
}

// checkFile applies the exported rule to every top-level declaration of
// one file.
func checkFile(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			requireDoc(pass, d.Pos(), d.Name.Name, d.Doc)
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			// A documented block (e.g. a const group sharing one
			// comment) covers its specs; the prefix rule then applies
			// per spec only when the spec carries its own comment.
			blockDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					doc := s.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					if doc == nil && blockDoc {
						continue // covered by the block comment
					}
					requireDoc(pass, s.Pos(), s.Name.Name, doc)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						doc := s.Doc
						if doc == nil && len(d.Specs) == 1 {
							doc = d.Doc
						}
						if doc == nil && blockDoc {
							continue // covered by the block comment
						}
						requireDoc(pass, name.Pos(), name.Name, doc)
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (functions without receivers count as exported scope). Methods on
// unexported types are internal plumbing even when their names are
// capitalized for interface satisfaction.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// requireDoc reports a diagnostic when the doc comment is missing or
// does not begin with the identifier's name, modulo a leading article.
func requireDoc(pass *analysis.Pass, pos token.Pos, name string, doc *ast.CommentGroup) {
	if doc == nil || strings.TrimSpace(doc.Text()) == "" {
		pass.Reportf(pos, "exported identifier %s has no doc comment", name)
		return
	}
	text := strings.TrimSpace(doc.Text())
	for _, article := range []string{"A ", "An ", "The "} {
		if rest, ok := strings.CutPrefix(text, article); ok {
			text = rest
			break
		}
	}
	if !strings.HasPrefix(text, name) {
		pass.Reportf(pos, "doc comment of %s should start with %q (golint exported rule); it starts with %.40q", name, name, text)
	}
}
