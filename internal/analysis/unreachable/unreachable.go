// Package unreachable is the whole-program check of cmd/moteurvet: it
// reports every declaration under an internal/ package that no main
// package reaches, so API that only tests call cannot accumulate.
//
// Reachability starts at every func main and func init of the load and
// follows each identifier a reached declaration uses. Two rules stand in
// for dispatch the syntax does not show: a reached named type reaches
// each of its methods whose name some interface of the load declares
// (String for fmt, Error and Unwrap for errors, Less for sort, and the
// repo's own interfaces), and it reaches every constant of that type.
//
// A declaration whose doc comment carries
//
//	//moteur:keep Table 1 figure helper, pinned by the paper tests
//
// is kept although unreached, and so is everything it uses. The reason
// after the directive is required, and a directive on a declaration a
// main reaches is a finding too, so keeps cannot go stale. A keep in a
// grouped declaration's doc covers every spec without its own doc.
package unreachable

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Name is the analyzer name on this check's findings.
const Name = "unreachable"

// KeepDirective marks a declaration kept although no main reaches it.
const KeepDirective = "moteur:keep"

// decl is one package-level declaration or method of the load.
type decl struct {
	obj types.Object
	// nodes is the syntax whose identifiers the declaration uses.
	nodes []ast.Node
	info  *types.Info
	keep  *analysis.Directive
	// internal marks declarations the check reports on.
	internal bool
	// reached is set by the walk; live keeps its value after the walk
	// from the roots alone, before kept declarations join them.
	reached, live bool
}

// graph indexes the load's declarations for the reachability walk.
type graph struct {
	decls []*decl
	byObj map[types.Object]*decl
	// methods and consts list, per named type, what reaching it reaches.
	methods, consts map[*types.TypeName][]*decl
	// dispatched holds every method name some interface declares.
	dispatched map[string]bool
	queue      []*decl
}

// Check walks the load from its roots and returns one finding per
// unreached internal/ declaration and per keep directive at fault.
func Check(fset *token.FileSet, pkgs []*analysis.Package) []analysis.Finding {
	g := &graph{
		byObj:      map[types.Object]*decl{},
		methods:    map[*types.TypeName][]*decl{},
		consts:     map[*types.TypeName][]*decl{},
		dispatched: interfaceMethods(pkgs),
	}
	for _, p := range pkgs {
		internal := strings.Contains("/"+p.Types.Path()+"/", "/internal/")
		for _, f := range p.Files {
			keeps := map[token.Pos]*analysis.Directive{}
			for _, d := range analysis.Directives(fset, f) {
				if d.Name == KeepDirective && internal {
					keeps[d.Pos] = &d
				}
			}
			for _, d := range f.Decls {
				for _, n := range g.index(p.Info, d, keeps) {
					n.internal = internal
					fn, ok := n.obj.(*types.Func)
					if ok && fn.Type().(*types.Signature).Recv() == nil &&
						(fn.Name() == "init" || fn.Name() == "main" && p.Types.Name() == "main") {
						g.reach(n)
					}
				}
			}
		}
	}
	g.walk()
	// A kept declaration reaches what it uses, so its helpers need no
	// directive of their own.
	for _, d := range g.decls {
		d.live = d.reached
		if d.keep != nil {
			g.reach(d)
		}
	}
	g.walk()

	var out []analysis.Finding
	for _, d := range g.decls {
		var msg string
		switch {
		case d.keep != nil && d.live:
			msg = "%s is reached from a main package; drop its //" + KeepDirective
		case d.keep != nil && d.keep.Reason == "":
			msg = "%s: //" + KeepDirective + " needs a reason"
		case d.internal && !d.reached:
			msg = "%s is reached from no main package"
		default:
			continue
		}
		out = append(out, analysis.Finding{Analyzer: Name, Position: fset.Position(d.obj.Pos()), Message: fmt.Sprintf(msg, describe(d.obj))})
	}
	return out
}

// index records the declarations of one top-level declaration, with the
// keep directive in each one's doc comment.
func (g *graph) index(info *types.Info, d ast.Decl, keeps map[token.Pos]*analysis.Directive) []*decl {
	var out []*decl
	add := func(id *ast.Ident, doc *ast.CommentGroup, nodes ...ast.Node) *decl {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		n := &decl{obj: obj, nodes: nodes, info: info}
		if doc != nil {
			for _, c := range doc.List {
				if n.keep = keeps[c.Pos()]; n.keep != nil {
					break
				}
			}
		}
		g.decls = append(g.decls, n)
		g.byObj[obj] = n
		out = append(out, n)
		return n
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		n := add(d.Name, d.Doc, d)
		if n == nil {
			break
		}
		if recv := n.obj.(*types.Func).Type().(*types.Signature).Recv(); recv != nil {
			t := namedOf(recv.Type())
			g.methods[t] = append(g.methods[t], n)
		}
	case *ast.GenDecl:
		// An implicitly repeated constant spec reuses the type and
		// values of the last spec that had them.
		var last *ast.ValueSpec
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				add(s.Name, orDoc(s.Doc, d.Doc), s)
			case *ast.ValueSpec:
				if s.Type != nil || len(s.Values) > 0 {
					last = s
				}
				for _, id := range s.Names {
					n := add(id, orDoc(s.Doc, d.Doc), s, last)
					if t := namedOf(info.TypeOf(id)); n != nil && t != nil && d.Tok == token.CONST {
						g.consts[t] = append(g.consts[t], n)
					}
				}
			}
		}
	}
	return out
}

// reach marks a declaration reached and queues its walk.
func (g *graph) reach(n *decl) {
	if n != nil && !n.reached {
		n.reached = true
		g.queue = append(g.queue, n)
	}
}

// walk drains the queue, reaching every object a reached declaration
// uses (seen through generic instantiation), plus what a reached type
// reaches through the two dispatch rules.
func (g *graph) walk() {
	for len(g.queue) > 0 {
		n := g.queue[0]
		g.queue = g.queue[1:]
		for _, node := range n.nodes {
			if node == nil {
				continue
			}
			ast.Inspect(node, func(x ast.Node) bool {
				id, ok := x.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := n.info.Uses[id].(type) {
				case *types.Func:
					g.reach(g.byObj[obj.Origin()])
				case *types.Var:
					g.reach(g.byObj[obj.Origin()])
				case types.Object:
					g.reach(g.byObj[obj])
				}
				return true
			})
		}
		switch o := n.obj.(type) {
		case *types.TypeName:
			for _, m := range g.methods[o] {
				if g.dispatched[m.obj.Name()] {
					g.reach(m)
				}
			}
			for _, c := range g.consts[o] {
				g.reach(c)
			}
		case *types.Const:
			if t := namedOf(o.Type()); t != nil {
				g.reach(g.byObj[t])
			}
		}
	}
}

// interfaceMethods collects the method names declared by every
// interface the load can see: the named interfaces in the scope of each
// package it imports, directly or not, and every interface type written
// in its sources. It starts from the error interface and the methods
// the errors package calls through interfaces it does not export.
func interfaceMethods(pkgs []*analysis.Package) map[string]bool {
	names := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}

// namedOf returns the declared type name behind t or a pointer to it.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// orDoc returns a spec's own doc, or its group's when it has none.
func orDoc(spec, group *ast.CommentGroup) *ast.CommentGroup {
	if spec != nil {
		return spec
	}
	return group
}

// describe names a declaration for a finding: package-qualified, with
// the receiver type for a method.
func describe(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = namedOf(recv.Type()).Name() + "." + name
		}
	}
	return obj.Pkg().Name() + "." + name
}
