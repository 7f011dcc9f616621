// Package analysistest is a small fixture harness for the lint suite,
// modeled on golang.org/x/tools/go/analysis/analysistest but built on
// the standard library alone. A fixture is a Go module under
// testdata/src/<name>; expected findings are declared in the fixture
// source with trailing comments of the form
//
//	for k := range m { // want `range over map`
//
// where the backquoted text is a regular expression matched against the
// findings reported on that line. Multiple `// want` clauses may be
// separated by whitespace inside one comment. The harness loads the
// fixture with golist.Check, the loader cmd/moteurvet runs, so every
// fixture also goes through the whole-program unreachable check, and
// fails the test on any unexpected or missing finding.
package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/golist"
)

// wantRE extracts the backquoted patterns of a // want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// expectation is one // want clause bound to a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture module rooted at dir/src/<fixture>, runs
// analyzers and the unreachable check over it, and checks the findings
// against the fixture's // want comments. Analyzers gated on package
// paths can be constructed to admit the fixture's module path.
//
//moteur:keep fixture harness of the analyzer tests
func Run(t *testing.T, dir, fixture string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join(dir, "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := golist.Check([]string{root}, analyzers)
	if err != nil {
		t.Fatalf("%s: %v", fixture, err)
	}
	fset := token.NewFileSet()
	var wants []*expectation
	err = filepath.WalkDir(root, func(path string, _ fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		wants = append(wants, parseWants(t, fset, f)...)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", fixture, err)
	}
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected finding: %s", fixture, f)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: %s:%d: expected finding matching %q, got none", fixture, w.file, w.line, w.re)
		}
	}
}

// parseWants collects the // want expectations of one fixture file.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			// The marker may open the comment or be embedded in one (a
			// //moteur: directive line can only carry its expectation
			// inside the directive comment itself).
			idx := strings.Index(c.Text, "// want `")
			if idx < 0 {
				continue
			}
			text := c.Text[idx+len("// want"):]
			pos := fset.Position(c.Pos())
			matches := wantRE.FindAllStringSubmatch(text, -1)
			if len(matches) == 0 {
				t.Fatalf("%s: // want comment without backquoted pattern", pos)
			}
			for _, m := range matches {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// claim marks the first unhit expectation matching the finding and
// reports whether one existed.
func claim(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.hit && w.file == f.Position.Filename && w.line == f.Position.Line && w.re.MatchString(f.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
