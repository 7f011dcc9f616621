package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
)

// The spec parser and the CLI fragment parsers read untrusted input.
// Their fuzz properties: no input panics, every fragment rejection wraps
// ErrParse, and every accepted value is one the world builder can use as
// is. Seed corpora live in testdata/fuzz/<target>; run one target with
// go test ./internal/scenario -run '^$' -fuzz FuzzParseSpec -fuzztime 10s

// fuzzSizesMB spans a fetch from nothing to a terabyte.
var fuzzSizesMB = []float64{0, 1e-3, 1, 1e3, 1e6}

// FuzzParseSpec feeds whole scenario documents to Parse, seeded with the
// library and with extreme link pairs. Every spec it accepts must price
// every ordered pair of its member grids, across clusters, at a
// non-negative cost: a negative estimate would win broker ranking and
// trip the engine's negative-delay panic.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no library scenarios to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data, "fuzz.json")
		if err != nil {
			return
		}
		lm := s.compileLinks()
		if lm == nil {
			lm = grid.DefaultWAN() // the federation default for a nil model
		}
		names := s.GridNames()
		for _, from := range names {
			for _, to := range names {
				l := lm.Link(grid.Site{Grid: from, Cluster: "a"}, grid.Site{Grid: to, Cluster: "b"})
				for _, mb := range fuzzSizesMB {
					if c := l.Cost(mb); c < 0 {
						t.Fatalf("%s>%s costs %v for %v MB (link %+v)", from, to, c, mb, l)
					}
				}
			}
		}
	})
}

func FuzzParseOutage(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseOutage(s)
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("ParseOutage(%q) = %v, want an ErrParse", s, err)
			}
			return
		}
		if o.Grid == "" || o.At < 0 || o.For < 0 {
			t.Fatalf("ParseOutage(%q) accepted %+v", s, o)
		}
	})
}

func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, grids int) {
		p, err := ParsePolicy(name, grids)
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("ParsePolicy(%q, %d) = %v, want an ErrParse", name, grids, err)
			}
			return
		}
		if p == nil {
			t.Fatalf("ParsePolicy(%q, %d) accepted a nil policy", name, grids)
		}
	})
}
