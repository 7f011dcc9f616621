package services

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/provenance"
)

// InternalRef points an input port of a group member at the output port of
// an earlier member: the data dependency resolved node-locally inside the
// grouped job, with no grid transfer and no catalog registration.
type InternalRef struct {
	Member int    // index of the producing member (must precede the consumer)
	Port   string // output name on that member
}

// GroupMember is one code in a grouped job: its wrapper plus the wiring of
// its inputs that are satisfied inside the group.
type GroupMember struct {
	W *Wrapper
	// Internal maps an input name of this member to the earlier member
	// output that feeds it. Inputs not listed are external: the grouped
	// service exposes them as "<memberName>.<inputName>".
	Internal map[string]InternalRef
}

// Grouped is a virtual service fusing a sequence of wrapped codes into a
// single grid job (the job-grouping optimization, Sec. 3.6 / Fig. 7
// bottom). Because the enactor has access to every member's executable
// descriptor, it can compose the command lines of the codes and submit one
// job invoking them in sequence: one submission overhead instead of k, and
// intermediate files never leave the worker node.
//
// The grouped service remains compatible with the service standards: it
// exposes the same invocation interface as any other service.
type Grouped struct {
	name    string
	g       Submitter // first member's target: the group submits as that tenant
	members []GroupMember
	invoked map[string]int // per index key, for deterministic output names
}

// NewGrouped builds a grouped service. Members run in slice order; every
// InternalRef must point to an earlier member and an output it declares.
// The exposed output ports are those of the last member.
func NewGrouped(name string, members []GroupMember) (*Grouped, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("services: group %s needs at least 2 members", name)
	}
	if members[0].W == nil {
		return nil, fmt.Errorf("services: group %s: member 0 has no wrapper", name)
	}
	sub := members[0].W.Submitter()
	for i, m := range members {
		if m.W == nil {
			return nil, fmt.Errorf("services: group %s: member %d has no wrapper", name, i)
		}
		// Handle identity, not just grid identity: tenant handles are
		// memoized, so this also rejects mixing tenants of one grid —
		// the group submits as a single tenant and mixed members would
		// silently be accounted to member 0's.
		if m.W.Submitter() != sub {
			return nil, fmt.Errorf("services: group %s: member %d targets a different grid or tenant", name, i)
		}
		for in, ref := range m.Internal {
			if _, ok := m.W.Descriptor().Input(in); !ok {
				return nil, fmt.Errorf("services: group %s: member %d has no input %q", name, i, in)
			}
			if ref.Member >= i {
				return nil, fmt.Errorf("services: group %s: input %q of member %d wired to non-preceding member %d",
					name, in, i, ref.Member)
			}
			found := false
			for _, out := range members[ref.Member].W.Descriptor().OutputNames() {
				if out == ref.Port {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("services: group %s: member %d has no output %q", name, ref.Member, ref.Port)
			}
		}
	}
	return &Grouped{name: name, g: sub, members: members, invoked: make(map[string]int)}, nil
}

// Name implements Service.
func (gs *Grouped) Name() string { return gs.name }

// Members returns the member wrappers in execution order.
func (gs *Grouped) Members() []GroupMember { return gs.members }

// ExternalInputs lists the exposed input port names, in member order:
// "<memberName>.<inputName>" for every input not wired internally.
func (gs *Grouped) ExternalInputs() []string {
	var out []string
	for _, m := range gs.members {
		for _, in := range m.W.Descriptor().InputNames() {
			if _, internal := m.Internal[in]; !internal {
				out = append(out, m.W.Name()+"."+in)
			}
		}
	}
	return out
}

// Invoke implements Service: it composes one command line covering all
// member codes and submits a single grid job. External inputs are read
// from req.Inputs under their qualified names; intermediate results are
// node-local temporary files.
func (gs *Grouped) Invoke(req Request, done func(Response)) {
	key := provenance.Key(req.Index)
	seq := gs.invoked[key]
	gs.invoked[key]++
	last := len(gs.members) - 1

	var (
		commands  []string
		stageIns  []string
		decls     []grid.FileDecl
		runtime   time.Duration
		exposed   map[string]string
		perMember = make([]map[string]string, len(gs.members)) // outputs per member
	)
	for i, m := range gs.members {
		desc := m.W.Descriptor()
		inputs := make(map[string]string, len(desc.Executable.Inputs))
		for _, in := range desc.InputNames() {
			if ref, internal := m.Internal[in]; internal {
				inputs[in] = perMember[ref.Member][ref.Port]
				continue
			}
			qual := m.W.Name() + "." + in
			v, ok := req.Inputs[qual]
			if !ok {
				done(Response{Err: fmt.Errorf("services: group %s: input %q not bound", gs.name, qual)})
				return
			}
			inputs[in] = v
		}
		outputs := make(map[string]string, len(desc.Executable.Outputs))
		for _, out := range desc.OutputNames() {
			if i == last {
				// Final outputs are registered on the grid.
				outputs[out] = fmt.Sprintf("gfn://%s/%s.%s.%d", gs.name, out, key, seq)
				decls = append(decls, grid.FileDecl{Name: outputs[out], SizeMB: m.W.OutputSize(out)})
			} else {
				// Intermediates stay on the worker node: no transfer, no
				// registration — the point of grouping.
				outputs[out] = fmt.Sprintf("tmp/%s.%s.%d", out, key, seq)
			}
		}
		perMember[i] = outputs
		if i == last {
			exposed = outputs
		}

		bind := descriptor.Bindings{Inputs: inputs, Outputs: outputs}
		cmd, err := desc.CommandLine(bind)
		if err != nil {
			done(Response{Err: fmt.Errorf("services: group %s: %w", gs.name, err)})
			return
		}
		commands = append(commands, cmd)
		stage, err := desc.StageIns(bind)
		if err != nil {
			done(Response{Err: fmt.Errorf("services: group %s: %w", gs.name, err)})
			return
		}
		// Internal inputs are tmp/ paths, never GFNs, so stage contains
		// only genuinely external files.
		stageIns = append(stageIns, stage...)

		memberReq := Request{Index: req.Index, Inputs: inputs}
		runtime += m.W.Runtime()(memberReq)
	}

	spec := grid.JobSpec{
		Name:    fmt.Sprintf("%s[%s]", gs.name, key),
		Command: descriptor.Compose(commands...),
		Inputs:  dedup(stageIns),
		Outputs: decls,
		Runtime: runtime,
	}
	gs.g.Submit(spec, func(rec *grid.JobRecord) {
		resp := Response{Jobs: []*grid.JobRecord{rec}}
		if rec.Status != grid.StatusCompleted {
			resp.Err = fmt.Errorf("services: group %s: %w", gs.name, rec.Err)
		} else {
			resp.Outputs = exposed
		}
		done(resp)
	})
}

// dedup removes repeated stage-in names while preserving order: members of
// a group often share inputs (e.g. the reference image), which are
// transferred once.
func dedup(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] && !strings.HasPrefix(n, "tmp/") {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

var _ Service = (*Grouped)(nil)
