// Package provenance tracks the history of every data item flowing through
// a workflow execution.
//
// Under data and service parallelism, items are computed out of order and
// may overtake one another, which the paper identifies as a causality
// problem for dot-product iteration strategies (Sec. 4.1): results must be
// paired by origin, not by completion order. Each item therefore carries a
// history tree recording the complete chain of processings that produced
// it, and an index vector locating it in the iteration space of its
// sources. Index vectors drive dot-product matching; history trees
// unambiguously identify data for traces and debugging.
package provenance

import (
	"fmt"
	"strings"

	"repro/internal/arena"
)

// Item is a data token: a value plus its identity in the iteration space
// and its derivation history.
type Item struct {
	// ID is unique within a Tracker (one workflow execution).
	ID int
	// Value is the payload: a GFN, a URL, or a literal parameter.
	Value string
	// Index is the item's index vector: the coordinates of the item in the
	// iteration space spanned by the workflow's data sources. A source item
	// has a one-dimensional index; a cross product concatenates dimensions.
	Index []int
	// History is the root of the item's history tree.
	History *Node
}

// Node is one derivation step in a history tree: which processor produced
// the item, on which port, from which input items.
type Node struct {
	// Processor that produced the data ("" only for constants).
	Processor string
	// Port the data was emitted on (empty for single-output sources).
	Port string
	// Index vector of the produced item.
	Index []int
	// Inputs are the histories of the items consumed to produce this one.
	// Empty for source items.
	Inputs []*Node
}

// Tracker mints items with execution-unique IDs. The zero value is ready
// to use. Items and history nodes live until the end of the execution, so
// the tracker hands them out from chunked arenas rather than allocating
// each one individually — one execution mints one item per data token, and
// the arena keeps that off the enactor's per-event allocation budget.
type Tracker struct {
	nextID   int
	items    arena.Chunked[Item]
	nodes    arena.Chunked[Node]
	nodePtrs arena.Chunked[*Node]
}

// NewTracker returns a fresh tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Source mints an item produced by a data source: index vector [idx].
func (t *Tracker) Source(source string, idx int, value string) *Item {
	index := []int{idx}
	n := t.nodes.New()
	n.Processor = source
	n.Index = index
	return t.mint(value, index, n)
}

// Derive mints an item produced by processor on port with the given index
// vector, consuming the given inputs.
func (t *Tracker) Derive(processor, port, value string, index []int, inputs ...*Item) *Item {
	nodes := t.nodePtrs.Slice(len(inputs))
	for i, in := range inputs {
		nodes[i] = in.History
	}
	n := t.nodes.New()
	n.Processor = processor
	n.Port = port
	n.Index = index
	n.Inputs = nodes
	return t.mint(value, index, n)
}

func (t *Tracker) mint(value string, index []int, h *Node) *Item {
	it := t.items.New()
	it.ID = t.nextID
	it.Value = value
	it.Index = index
	it.History = h
	t.nextID++
	return it
}

// Key returns the canonical string form of an index vector, used as the
// dot-product matching key. Constants (nil index) return "*": they align
// with every index.
func Key(index []int) string {
	if index == nil {
		return "*"
	}
	if len(index) == 0 {
		return "()"
	}
	var b strings.Builder
	for i, v := range index {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Key returns the item's dot-product matching key.
func (it *Item) Key() string { return Key(it.Index) }

// String renders an item compactly: value plus index.
func (it *Item) String() string {
	return fmt.Sprintf("%s[%s]", it.Value, it.Key())
}

// Render returns the history tree in a functional notation, e.g.
//
//	crestMatch[0]( crestLines[0]( ref[0], flo[0] ), ref[0] )
//
// which identifies the data unambiguously (Sec. 4.1).
//
//moteur:keep test observer of the history trees the enactor builds
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	name := n.Processor
	if name == "" {
		name = "const"
	}
	b.WriteString(name)
	if n.Port != "" {
		b.WriteByte(':')
		b.WriteString(n.Port)
	}
	b.WriteByte('[')
	b.WriteString(Key(n.Index))
	b.WriteByte(']')
	if len(n.Inputs) == 0 {
		return
	}
	b.WriteString("( ")
	for i, in := range n.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		in.render(b)
	}
	b.WriteString(" )")
}

// Depth returns the height of the history tree (a source item has depth 1).
func (n *Node) Depth() int {
	max := 0
	for _, in := range n.Inputs {
		if d := in.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Sources returns the distinct (processor, index-key) source leaves this
// item ultimately derives from, in first-visit order.
func (n *Node) Sources() []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(*Node)
	walk = func(m *Node) {
		if len(m.Inputs) == 0 {
			key := m.Processor + "[" + Key(m.Index) + "]"
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
			return
		}
		for _, in := range m.Inputs {
			walk(in)
		}
	}
	walk(n)
	return out
}
