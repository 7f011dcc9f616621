package scenario

import (
	"errors"
	"math"
	"testing"

	"repro/internal/grid"
)

// The CLI fragment parsers read untrusted flag values. Their fuzz
// properties: no input panics, every rejection wraps ErrParse, and every
// accepted value is one the world builder can use as is. Seed corpora
// live in testdata/fuzz/<target>; run one target with
// go test ./internal/scenario -run '^$' -fuzz FuzzParsePairs -fuzztime 10s

// fuzzSizesMB spans a fetch from nothing to a terabyte.
var fuzzSizesMB = []float64{0, 1e-3, 1, 10, 1e3, 1e6}

func FuzzParsePairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		for _, classes := range []*grid.Links{nil, grid.DefaultWAN()} {
			m, err := ParsePairs(s, classes)
			if err != nil {
				if !errors.Is(err, ErrParse) {
					t.Fatalf("ParsePairs(%q) = %v, want an ErrParse", s, err)
				}
				continue
			}
			//moteur:orderinvariant each pair is checked independently
			for pair, l := range m.Pairs {
				if !(l.MBps > 0) || math.IsInf(l.MBps, 0) || l.Latency < 0 {
					t.Fatalf("ParsePairs(%q) accepted %v = %+v", s, pair, l)
				}
				for _, mb := range fuzzSizesMB {
					if c := l.Cost(mb); c < 0 {
						t.Fatalf("ParsePairs(%q): %v costs %v for %v MB", s, pair, c, mb)
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

func FuzzParseFloats(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		vs, err := ParseFloats(s)
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("ParseFloats(%q) = %v, want an ErrParse", s, err)
			}
			return
		}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseFloats(%q) accepted %v", s, v)
			}
		}
	})
}
