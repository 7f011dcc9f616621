package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/provenance"
	"repro/internal/sim"
)

// Invocation is one trace entry: a single service invocation with its
// timing and the grid jobs behind it.
type Invocation struct {
	Processor string
	Index     []int
	Sync      bool
	Ready     sim.Time // input tuple complete, queued for admission
	Started   sim.Time // service invoked
	Finished  sim.Time
	Jobs      []*grid.JobRecord
	Err       error
}

// Key returns the invocation's index key.
func (i *Invocation) Key() string { return provenance.Key(i.Index) }

// Wait returns how long the tuple waited for admission (gates, caps).
func (i *Invocation) Wait() time.Duration { return time.Duration(i.Started - i.Ready) }

// Span returns the invocation's service time.
func (i *Invocation) Span() time.Duration { return time.Duration(i.Finished - i.Started) }

// Trace is the complete execution record, in invocation start order.
type Trace struct {
	Invocations []*Invocation
}

// ByProcessor returns the invocations of one processor, in start order.
func (t *Trace) ByProcessor(name string) []*Invocation {
	var out []*Invocation
	for _, inv := range t.Invocations {
		if inv.Processor == name {
			out = append(out, inv)
		}
	}
	return out
}

// Processors returns the distinct processor names appearing in the trace,
// sorted.
func (t *Trace) Processors() []string {
	set := make(map[string]bool)
	for _, inv := range t.Invocations {
		set[inv.Processor] = true
	}
	out := make([]string, 0, len(set))
	//moteur:orderinvariant keys are sorted immediately after collection
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// JobCount returns the total number of grid job submissions (including
// resubmissions after failures) behind the trace.
func (t *Trace) JobCount() int {
	n := 0
	for _, inv := range t.Invocations {
		for _, j := range inv.Jobs {
			n += j.Attempts
		}
	}
	return n
}

// Result is the outcome of one workflow execution.
type Result struct {
	// Makespan is the total execution time Σ of the workflow.
	Makespan time.Duration
	// Options records the optimization configuration used.
	Options Options
	// Outputs holds, per sink, the collected values sorted by index key —
	// identical across optimization configurations by construction.
	Outputs map[string][]string
	// Items holds the sink items with full provenance.
	Items map[string][]*provenance.Item
	// Trace is the execution record.
	Trace *Trace
}

// Summary renders a short human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "configuration %s: makespan %v, %d invocations\n",
		r.Options, r.Makespan.Round(time.Second), len(r.Trace.Invocations))
	for _, name := range r.Trace.Processors() {
		invs := r.Trace.ByProcessor(name)
		var wait, span time.Duration
		for _, inv := range invs {
			wait += inv.Wait()
			span += inv.Span()
		}
		n := time.Duration(len(invs))
		fmt.Fprintf(&b, "  %-28s %4d invocations, mean wait %v, mean service %v\n",
			name, len(invs), (wait / n).Round(time.Second), (span / n).Round(time.Second))
	}
	sinks := make([]string, 0, len(r.Outputs))
	//moteur:orderinvariant keys are sorted immediately after collection
	for s := range r.Outputs {
		sinks = append(sinks, s)
	}
	sort.Strings(sinks)
	for _, s := range sinks {
		fmt.Fprintf(&b, "  sink %-23s %4d items\n", s, len(r.Outputs[s]))
	}
	return b.String()
}
