package workflow

import "fmt"

func errCycle(w *Workflow) error {
	return fmt.Errorf("workflow %s: graph has a cycle", w.Name)
}

// Topology is a precomputed, immutable view of a workflow's graph
// structure. The naive Workflow accessors (Outgoing, Predecessors,
// Ancestors, ...) rescan w.Links or re-run graph walks on every call,
// which puts O(links) — or worse — inside the enactor's per-event hot
// path. A Topology answers the same queries from indexes built once.
//
// Build it with Workflow.Topology() after the graph is fully constructed;
// it is a snapshot and does not observe later Add/Connect/Constrain calls.
type Topology struct {
	w     *Workflow
	names []string       // insertion order
	index map[string]int // name → position in names

	outgoing [][]Link            // per proc, links leaving it, in w.Links order
	incoming []map[string][]Link // per proc, in port → links, in w.Links order

	preds [][]string // distinct data+constraint predecessors, sorted
	succs [][]string // distinct data+constraint successors, sorted

	constraintsAfter     [][]Constraint // constraints with After == proc, in declaration order
	constraintDependents [][]string     // distinct procs with a constraint Before == proc, sorted

	ancestors []map[string]bool // lazy memo; nil until first Ancestors call
}

// Topology builds the precomputed view. Unknown link or constraint
// endpoints are tolerated (exactly as the naive accessors tolerate them);
// run Validate first to reject them.
func (w *Workflow) Topology() *Topology {
	n := len(w.order)
	t := &Topology{
		w:     w,
		names: append([]string(nil), w.order...),
		index: make(map[string]int, n),

		outgoing: make([][]Link, n),
		incoming: make([]map[string][]Link, n),

		preds: make([][]string, n),
		succs: make([][]string, n),

		constraintsAfter:     make([][]Constraint, n),
		constraintDependents: make([][]string, n),

		ancestors: make([]map[string]bool, n),
	}
	for i, name := range t.names {
		t.index[name] = i
	}
	predSets := make([]map[string]bool, n)
	succSets := make([]map[string]bool, n)
	depSets := make([]map[string]bool, n)
	for i := range t.names {
		predSets[i] = make(map[string]bool)
		succSets[i] = make(map[string]bool)
		depSets[i] = make(map[string]bool)
	}
	for _, l := range w.Links {
		if i, ok := t.index[l.FromProc]; ok {
			t.outgoing[i] = append(t.outgoing[i], l)
			succSets[i][l.ToProc] = true
		}
		if i, ok := t.index[l.ToProc]; ok {
			if t.incoming[i] == nil {
				t.incoming[i] = make(map[string][]Link)
			}
			t.incoming[i][l.ToPort] = append(t.incoming[i][l.ToPort], l)
			predSets[i][l.FromProc] = true
		}
	}
	for _, c := range w.Constraints {
		if i, ok := t.index[c.After]; ok {
			t.constraintsAfter[i] = append(t.constraintsAfter[i], c)
			predSets[i][c.Before] = true
		}
		if i, ok := t.index[c.Before]; ok {
			succSets[i][c.After] = true
			depSets[i][c.After] = true
		}
	}
	for i := range t.names {
		t.preds[i] = sortedKeys(predSets[i])
		t.succs[i] = sortedKeys(succSets[i])
		t.constraintDependents[i] = sortedKeys(depSets[i])
	}
	return t
}

// Index returns the dense index of a processor name (its position in
// insertion order) and whether the name is known.
func (t *Topology) Index(name string) (int, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Names returns the processor names in insertion order. The caller must
// not modify the returned slice.
func (t *Topology) Names() []string { return t.names }

// Outgoing returns the links leaving the processor, in declaration order —
// the cached equivalent of Workflow.Outgoing. The caller must not modify
// the returned slice.
func (t *Topology) Outgoing(name string) []Link {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.outgoing[i]
}

// Incoming returns the links feeding the processor, grouped by input
// port — the cached equivalent of Workflow.Incoming. The caller must not
// modify the returned map or slices.
func (t *Topology) Incoming(name string) map[string][]Link {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.incoming[i]
}

// Predecessors returns the distinct upstream processor names (data links
// and coordination constraints), sorted — the cached equivalent of
// Workflow.Predecessors. The caller must not modify the returned slice.
func (t *Topology) Predecessors(name string) []string {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.preds[i]
}

// Successors returns the distinct downstream processor names, sorted —
// the cached equivalent of Workflow.Successors. The caller must not
// modify the returned slice.
func (t *Topology) Successors(name string) []string {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.succs[i]
}

// ConstraintsAfter returns the coordination constraints gating the
// processor (those with After == name), in declaration order.
func (t *Topology) ConstraintsAfter(name string) []Constraint {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.constraintsAfter[i]
}

// ConstraintDependents returns the distinct processors gated on the
// completion of name (constraints with Before == name), sorted.
func (t *Topology) ConstraintDependents(name string) []string {
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.constraintDependents[i]
}

// Ancestors returns every processor from which name is reachable through
// data links or constraints (name excluded) — the cached equivalent of
// Workflow.Ancestors. Works on cyclic graphs. The set is computed on
// first request and memoized; the caller must not modify it.
func (t *Topology) Ancestors(name string) map[string]bool {
	i, ok := t.index[name]
	if !ok {
		// Match the naive implementation: unknown names have no ancestors.
		return map[string]bool{}
	}
	if t.ancestors[i] != nil {
		return t.ancestors[i]
	}
	out := make(map[string]bool)
	// Iterative DFS over the cached predecessor lists.
	stack := append([]string(nil), t.preds[i]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[n] {
			continue
		}
		out[n] = true
		if j, ok := t.index[n]; ok {
			stack = append(stack, t.preds[j]...)
		}
	}
	delete(out, name)
	t.ancestors[i] = out
	return out
}

// TopoOrder returns processor names in a topological order of the combined
// data-link and constraint graph, with insertion-order tie-breaking — the
// cached equivalent of Workflow.TopoOrder. It fails if the graph has a
// cycle.
func (t *Topology) TopoOrder() ([]string, error) {
	indeg := make([]int, len(t.names))
	var queue []string
	for i := range t.names {
		indeg[i] = len(t.preds[i])
		if indeg[i] == 0 {
			queue = append(queue, t.names[i])
		}
	}
	var out []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, succ := range t.succs[t.index[n]] {
			j := t.index[succ]
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(out) != len(t.names) {
		return nil, errCycle(t.w)
	}
	return out, nil
}
