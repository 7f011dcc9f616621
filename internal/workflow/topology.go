package workflow

// Topology is a precomputed, immutable view of a workflow's graph
// structure. The naive Workflow accessors (Outgoing, Predecessors,
// Ancestors, ...) rescan w.Links or re-run graph walks on every call,
// which puts O(links) — or worse — inside the enactor's per-event hot
// path. A Topology answers the same queries from indexes built once.
//
// Build it with Workflow.Topology() after the graph is fully constructed;
// it is a snapshot and does not observe later Add/Connect/Constrain calls.
type Topology struct {
	index map[string]int // name → position in insertion order

	outgoing [][]Link // per proc, links leaving it, in w.Links order

	preds [][]string // distinct data+constraint predecessors, sorted
	succs [][]string // distinct data+constraint successors, sorted

	constraintsAfter [][]Constraint // constraints with After == proc, in declaration order

	ancestors []map[string]bool // lazy memo; nil until first Ancestors call
}

// Topology builds the precomputed view. Unknown link or constraint
// endpoints are tolerated (exactly as the naive accessors tolerate them);
// run Validate first to reject them.
func (w *Workflow) Topology() *Topology {
	n := len(w.order)
	t := &Topology{
		index: make(map[string]int, n),

		outgoing: make([][]Link, n),

		preds: make([][]string, n),
		succs: make([][]string, n),

		constraintsAfter: make([][]Constraint, n),

		ancestors: make([]map[string]bool, n),
	}
	for i, name := range w.order {
		t.index[name] = i
	}
	predSets := make([]map[string]bool, n)
	succSets := make([]map[string]bool, n)
	for i := range predSets {
		predSets[i] = make(map[string]bool)
		succSets[i] = make(map[string]bool)
	}
	for _, l := range w.Links {
		if i, ok := t.index[l.FromProc]; ok {
			t.outgoing[i] = append(t.outgoing[i], l)
			succSets[i][l.ToProc] = true
		}
		if i, ok := t.index[l.ToProc]; ok {
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
		}
	}
	for i := range predSets {
		t.preds[i] = sortedKeys(predSets[i])
		t.succs[i] = sortedKeys(succSets[i])
	}
	return t
}

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
