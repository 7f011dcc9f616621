// Package services implements the application-service abstraction of the
// paper's service-based approach (Sec. 2): black boxes exposing a standard
// invocation interface, hiding both the code invocation and the execution
// platform.
//
// Invocation is asynchronous, as required for any parallelism at the
// enactor level (Sec. 3.1): Invoke returns immediately and the completion
// callback fires later in virtual time, mirroring the enactor-side threads
// the paper spawns around synchronous web-service calls.
//
// Three implementations are provided:
//
//   - Local: code running on a single host with a bounded number of
//     concurrent executions — the plain web-service deployment whose
//     saturation motivates grid submission (Sec. 2).
//   - Wrapper: the paper's generic submission service (Sec. 3.6). Driven by
//     an XML executable descriptor, it composes the command line at
//     invocation time, stages GFN inputs, submits a grid job, and registers
//     outputs.
//   - Grouped: a virtual service fusing a sequence of Wrappers into a
//     single grid job (the job-grouping optimization).
package services

import (
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// Request is one service invocation: the value bound to each input port.
// For synchronization services, Lists carries the complete per-port item
// lists instead (Sec. 2.3).
type Request struct {
	// Index is the iteration-space index of the invocation (for runtime
	// models and traces).
	Index []int
	// Inputs binds one value per input port. The map is owned by the
	// invoker, which may recycle it once the completion callback has
	// returned: services must consume the bindings during invocation and
	// must not retain the map afterwards.
	Inputs map[string]string
	// Lists binds the full value list per input port; non-nil only for
	// synchronization invocations.
	Lists map[string][]string
}

// Response is the outcome of an invocation. Outputs may omit ports: a
// service with conditional outputs (the Fig. 2 optimization loop) emits on
// a subset of its ports each invocation.
type Response struct {
	Outputs map[string]string
	Err     error
	// Jobs are the grid job records behind this invocation (nil for local
	// services); used by traces and overhead accounting.
	Jobs []*grid.JobRecord
}

// Service is an application component invocable through the standard
// interface. Implementations must call done exactly once, in virtual time.
type Service interface {
	Name() string
	Invoke(req Request, done func(Response))
}

// Submitter abstracts where wrapper-backed services send their grid jobs:
// the whole grid (the single-workflow case — *grid.Grid satisfies the
// interface directly), one tenant of a shared grid (*grid.Tenant, used by
// multi-tenant campaigns), or a tenant of a multi-grid federation
// (*federation.Tenant), whose broker policy picks a target grid per job.
// Tenant-shaped submitters tag submissions for per-tenant accounting and
// route them through the fair-share gate at each UI.
//
// Submitter identity is tenancy identity: tenant handles are memoized, so
// comparing Submitters (as Grouped does) detects members that would submit
// under different tenants or infrastructures.
type Submitter interface {
	// Submit enters a job, invoking done once at its terminal state. The
	// returned record is the first attempt's; brokers that re-submit
	// elsewhere after a failure report the final attempt's record to done,
	// so terminal state must be read from the callback's record.
	Submit(spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord
	// Catalog returns the replica catalog jobs stage from and register
	// into — the only piece of the infrastructure the wrapper composition
	// logic needs (a federation has many grids but one catalog).
	Catalog() *grid.Catalog
}

// RuntimeModel gives the compute time of a code for one invocation. Models
// may depend on the request (e.g. per-item synthetic variability).
type RuntimeModel func(req Request) time.Duration

// ConstantRuntime returns a model that always answers d.
func ConstantRuntime(d time.Duration) RuntimeModel {
	return func(Request) time.Duration { return d }
}

// Local is a service executing on a single host with bounded concurrency.
type Local struct {
	name string
	eng  *sim.Engine
	host *sim.Resource
	run  RuntimeModel
	fn   func(Request) map[string]string
}

// NewLocal builds a single-host service. capacity bounds concurrent
// executions (a production web service container has a finite worker
// pool). fn computes the outputs; if nil, the service echoes each input
// port to the output port of the same name.
func NewLocal(eng *sim.Engine, name string, capacity int, run RuntimeModel, fn func(Request) map[string]string) *Local {
	if run == nil {
		panic("services: NewLocal with nil runtime model")
	}
	return &Local{
		name: name,
		eng:  eng,
		host: sim.NewResource(eng, capacity),
		run:  run,
		fn:   fn,
	}
}

// Name implements Service.
func (l *Local) Name() string { return l.name }

// Invoke implements Service: the call queues for a host slot, computes for
// the model's duration, and completes.
func (l *Local) Invoke(req Request, done func(Response)) {
	l.host.Acquire(func() {
		l.eng.Schedule(l.run(req), func() {
			l.host.Release()
			outputs := map[string]string{}
			if l.fn != nil {
				outputs = l.fn(req)
			} else {
				for p, v := range req.Inputs {
					outputs[p] = v
				}
			}
			done(Response{Outputs: outputs})
		})
	})
}
