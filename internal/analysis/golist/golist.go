// Package golist is cmd/moteurvet's loader. It lists every package of
// one or more module trees with `go list -export -deps -json ./...`,
// which also compiles the standard library's export data into the build
// cache, then type-checks every module package from source in
// dependency order. All packages share one FileSet and one set of type
// objects, so a declaration in one package is the same types.Object
// wherever another package uses it. That makes the load a whole
// program: the per-package analyzers run over each module package, and
// the unreachable check runs over all of them at once. It needs no go
// vet orchestration and no network access.
package golist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/unreachable"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	// ImportPath is the canonical package path.
	ImportPath string
	// Dir is the directory holding the package sources.
	Dir string
	// GoFiles lists the package's Go sources, relative to Dir, test
	// files excluded.
	GoFiles []string
	// Export is the file holding the package's gc export data.
	Export string
	// Standard marks standard-library packages, which are imported
	// from export data and never checked.
	Standard bool
}

// Check loads every package of the module rooted at each of dirs and
// runs analyzers over each module package, then runs the unreachable
// check over the whole load. Findings come back sorted by position.
func Check(dirs []string, analyzers []*analysis.Analyzer) ([]analysis.Finding, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	loaded := map[string]*analysis.Package{}
	source := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := loaded[path]; ok {
			return p.Types, nil
		}
		return imp.Import(path)
	})
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		listed, err := list(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
		// go list -deps prints every package after its dependencies,
		// so each import resolves to a package already checked.
		for _, p := range listed {
			if p.Standard || len(p.GoFiles) == 0 || loaded[p.ImportPath] != nil {
				continue
			}
			pkg, err := load(fset, p, source)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
			}
			loaded[p.ImportPath] = pkg
			pkgs = append(pkgs, pkg)
		}
	}
	var all []analysis.Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{Fset: fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info}
			pass.Report = func(d analysis.Diagnostic) {
				all = append(all, analysis.Finding{Analyzer: a.Name, Position: fset.Position(d.Pos), Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, p.Types.Path(), err)
			}
		}
	}
	all = append(all, unreachable.Check(fset, pkgs)...)
	analysis.SortFindings(all)
	return all, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// list runs go list over every package of the module rooted at dir.
func list(dir string) ([]*listPackage, error) {
	cmd := exec.Command("go", "list", "-C", dir, "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var out []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list output in %s: %v", dir, err)
		}
		out = append(out, p)
	}
}

// load parses and type-checks one listed package from source.
func load(fset *token.FileSet, p *listPackage, imp types.Importer) (*analysis.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &analysis.Package{Files: files, Types: pkg, Info: info}, nil
}
