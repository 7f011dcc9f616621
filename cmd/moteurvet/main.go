// Command moteurvet runs the repo's lint suite over the whole program:
// the repro module plus its nested perfbench module. The
// per-package checks are maprange (no ranging over maps in
// simulation-critical packages), simtime (no wall-clock time or
// math/rand there either) and exporteddoc (the exported surface of the
// root and internal/ packages is documented). The whole-program check,
// unreachable, reports every internal/ declaration that no main package
// under cmd/, examples/ or perfbench/ reaches, unless its doc comment
// carries //moteur:keep with a reason.
//
// It takes no arguments and, run anywhere inside either module, always
// loads both in full, because a partial load would report declarations
// as unreachable whose users it did not load:
//
//	go build -o bin/moteurvet ./cmd/moteurvet && bin/moteurvet
//
// It exits 2 when there are findings and 1 when it cannot run: given
// arguments, outside the module, or on a failed load.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/exporteddoc"
	"repro/internal/analysis/golist"
	"repro/internal/analysis/maprange"
	"repro/internal/analysis/simtime"
)

// suite is the per-package lint suite, in diagnostic-prefix order.
var suite = []*analysis.Analyzer{
	exporteddoc.Analyzer,
	maprange.Analyzer,
	simtime.Analyzer,
}

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: moteurvet (no arguments; it lints the whole module)")
		os.Exit(1)
	}
	// The repro module's root, from inside it or inside perfbench.
	dir, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", "repro").Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "moteurvet: run it inside the repro module")
		os.Exit(1)
	}
	root := strings.TrimSpace(string(dir))
	findings, err := golist.Check([]string{root, filepath.Join(root, "perfbench")}, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moteurvet: %v\n", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "moteurvet: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}
