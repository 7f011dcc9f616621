package workflow

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// randomGraph builds a random workflow graph: a mix of sources, sinks and
// two-in/two-out service processors, random links (cycles allowed), random
// constraints, and occasionally dangling endpoints (which the accessors
// tolerate). Services are left without Service implementations: the
// topology layer never invokes them.
func randomGraph(r *rng.Source) *Workflow {
	w := New("random")
	n := 2 + r.Intn(12)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			w.AddSource(fmt.Sprintf("P%d", i))
		case 1:
			w.AddSink(fmt.Sprintf("P%d", i))
		default:
			w.Add(&Processor{
				Name:     fmt.Sprintf("P%d", i),
				Kind:     KindService,
				InPorts:  []string{"a", "b"},
				OutPorts: []string{"x", "y"},
			})
		}
	}
	procs := w.Processors()
	pick := func() *Processor { return procs[r.Intn(len(procs))] }
	port := func(ports []string) string {
		if len(ports) == 0 {
			return "none"
		}
		return ports[r.Intn(len(ports))]
	}
	nLinks := r.Intn(3 * n)
	for i := 0; i < nLinks; i++ {
		from, to := pick(), pick()
		w.Connect(from.Name, port(from.OutPorts), to.Name, port(to.InPorts))
	}
	if r.Intn(4) == 0 { // dangling endpoints
		w.Connect("ghost-producer", "x", pick().Name, "a")
		w.Connect(pick().Name, "x", "ghost-consumer", "a")
	}
	nCons := r.Intn(n)
	for i := 0; i < nCons; i++ {
		w.Constrain(pick().Name, pick().Name)
	}
	if r.Intn(4) == 0 {
		w.Constrain("ghost-before", pick().Name)
		w.Constrain(pick().Name, "ghost-after")
	}
	return w
}

// naiveConstraintsAfter mirrors the scan the enactor used to run on every
// gate evaluation.
func naiveConstraintsAfter(w *Workflow, name string) []Constraint {
	var out []Constraint
	for _, c := range w.Constraints {
		if c.After == name {
			out = append(out, c)
		}
	}
	return out
}

// TestTopologyMatchesNaive checks, on randomized graphs (cyclic and
// acyclic, with occasional dangling endpoints), that every cached answer
// matches the naive link-scanning implementation.
func TestTopologyMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		w := randomGraph(r)
		topo := w.Topology()
		for _, p := range w.Processors() {
			name := p.Name
			if got, want := topo.Outgoing(name), w.Outgoing(name); !sameLinks(got, want) {
				t.Fatalf("seed %d: Outgoing(%s) = %v, naive %v", seed, name, got, want)
			}
			if got, want := topo.Predecessors(name), w.Predecessors(name); !sameStrings(got, want) {
				t.Fatalf("seed %d: Predecessors(%s) = %v, naive %v", seed, name, got, want)
			}
			if got, want := topo.Successors(name), w.Successors(name); !sameStrings(got, want) {
				t.Fatalf("seed %d: Successors(%s) = %v, naive %v", seed, name, got, want)
			}
			if got, want := topo.Ancestors(name), w.Ancestors(name); !sameSets(got, want) {
				t.Fatalf("seed %d: Ancestors(%s) = %v, naive %v", seed, name, got, want)
			}
			if got, want := topo.ConstraintsAfter(name), naiveConstraintsAfter(w, name); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("seed %d: ConstraintsAfter(%s) = %v, naive %v", seed, name, got, want)
			}
		}
	}
}

// TestTopologyAncestorsCyclic pins the cached ancestor walk on an explicit
// loop (Fig. 2 shape): every node in a cycle is an ancestor of every
// other, including itself being excluded from its own set.
func TestTopologyAncestorsCyclic(t *testing.T) {
	w := New("loop")
	for _, n := range []string{"A", "B", "C"} {
		w.Add(&Processor{Name: n, Kind: KindService, InPorts: []string{"in"}, OutPorts: []string{"out"}})
	}
	w.Connect("A", "out", "B", "in")
	w.Connect("B", "out", "C", "in")
	w.Connect("C", "out", "A", "in")
	topo := w.Topology()
	for _, n := range []string{"A", "B", "C"} {
		got := topo.Ancestors(n)
		want := w.Ancestors(n)
		if !sameSets(got, want) {
			t.Fatalf("Ancestors(%s) = %v, naive %v", n, got, want)
		}
		if len(got) != 2 || got[n] {
			t.Fatalf("Ancestors(%s) = %v, want the two other cycle members", n, got)
		}
	}
}

// TestTopologyUnknownName checks the cached accessors answer like the
// naive ones for names that are not in the workflow.
func TestTopologyUnknownName(t *testing.T) {
	w := New("w")
	w.AddSource("src")
	topo := w.Topology()
	if got := topo.Outgoing("nope"); len(got) != 0 {
		t.Fatalf("Outgoing(unknown) = %v", got)
	}
	if got := topo.Predecessors("nope"); len(got) != 0 {
		t.Fatalf("Predecessors(unknown) = %v", got)
	}
	if got := topo.Ancestors("nope"); len(got) != 0 {
		t.Fatalf("Ancestors(unknown) = %v", got)
	}
}

// TestTopologySnapshot checks that a Topology is a snapshot: links added
// after construction are not observed (callers rebuild after mutating).
func TestTopologySnapshot(t *testing.T) {
	w := New("w")
	w.AddSource("src")
	w.AddSink("dst")
	topo := w.Topology()
	w.Connect("src", SourcePort, "dst", SinkPort)
	if got := topo.Outgoing("src"); len(got) != 0 {
		t.Fatalf("snapshot observed later Connect: %v", got)
	}
	if got := w.Topology().Outgoing("src"); len(got) != 1 {
		t.Fatalf("rebuilt topology missed link: %v", got)
	}
}

func sameLinks(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
