package scufl

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

// FuzzParseScufl feeds whole documents to Parse, seeded with the Fig. 1
// workflow, the wrapper-embedding document and the rejection table. The
// property: no input panics, and every accepted workflow re-parses from
// its own Write output with the same processors, links and constraints
// (against a registry of the services the first parse bound, since Write
// references wrappers by name). Run it with
// go test ./internal/scufl -run '^$' -fuzz FuzzParseScufl -fuzztime 10s
func FuzzParseScufl(f *testing.F) {
	f.Add([]byte(fig1Doc))
	f.Add([]byte(wrappedDoc))
	for _, c := range parseErrorCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := sim.NewEngine()
		opts := Options{Registry: echoRegistry(eng, "P1", "P2", "P3"), Grid: grid.New(eng, grid.IdealConfig(1))}
		w, err := Parse(data, opts)
		if err != nil {
			return
		}
		out, err := Write(w)
		if err != nil {
			t.Fatalf("accepted workflow does not write: %v", err)
		}
		reg := Registry{}
		for _, p := range w.Processors() {
			if p.Service != nil {
				reg[p.Service.Name()] = p.Service
			}
		}
		w2, err := Parse(out, Options{Registry: reg})
		if err != nil {
			t.Fatalf("written workflow does not re-parse: %v\n%s", err, out)
		}
		if len(w2.Processors()) != len(w.Processors()) || len(w2.Links) != len(w.Links) ||
			len(w2.Constraints) != len(w.Constraints) {
			t.Fatalf("round trip changed the structure:\n%s", out)
		}
	})
}
