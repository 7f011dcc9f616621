package grid

import "repro/internal/sim"

// Tenant is a named submission handle on a shared grid, the unit of
// multi-tenancy: every job submitted through the handle is tagged with the
// tenant's name, the fair-share gate at the serialized UI drains tenants
// round-robin so no tenant's burst starves the others, and the per-tenant
// statistics read the tenant's own record partition, so they cost
// O(own jobs) however many tenants share the grid.
//
// Handles are memoized: Grid.Tenant returns the same *Tenant for the same
// name, so handle identity can stand in for tenant identity (grouped
// services rely on this when validating that all members target the same
// submission context).
type Tenant struct {
	g    *Grid
	name string

	// slot is the tenant's fair-share ring slot (-1 until its first
	// submission) and weight its Config.TenantWeights drain quota; queue
	// holds its submissions waiting at the gate.
	slot   int
	weight int
	queue  submitQueue
	// records is the tenant's partition of Grid.Records, appended
	// alongside the global list.
	records []*JobRecord
}

// Tenant returns the submission handle for the named tenant, creating it
// on first use. The empty name is the default tenant Grid.Submit uses.
func (g *Grid) Tenant(name string) *Tenant {
	if t, ok := g.tenants[name]; ok {
		return t
	}
	t := &Tenant{g: g, name: name, slot: -1}
	g.tenants[name] = t
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Catalog returns the shared grid's replica catalog. Together with Submit
// it makes *Tenant satisfy services.Submitter.
func (t *Tenant) Catalog() *Catalog { return t.g.catalog }

// Engine returns the simulation engine the shared grid runs on. Campaign
// workflow builders use it to create tenant-local services (it is part of
// campaign.Handle).
func (t *Tenant) Engine() *sim.Engine { return t.g.Eng }

// Submit enters a job tagged with this tenant. Semantics are those of
// Grid.Submit; the only differences are the tenant tag on the record and
// the fair-share queue the submission waits in.
func (t *Tenant) Submit(spec JobSpec, done func(*JobRecord)) *JobRecord {
	return t.g.submit(t, spec, done)
}

// Records returns this tenant's job records, in submission order. Records
// of in-flight jobs are included and still mutating. The slice is the
// handle's own partition, clipped so that appending to it copies rather
// than writing into the handle's storage.
func (t *Tenant) Records() []*JobRecord {
	return t.records[:len(t.records):len(t.records)]
}

// Overheads computes overhead statistics over this tenant's jobs only.
// Because every record carries exactly one tenant tag, the per-tenant
// statistics of all tenants partition the global Grid.Overheads: job,
// failure and resubmission counts sum to the global ones.
func (t *Tenant) Overheads() OverheadStats {
	return OverheadsOf(t.records)
}

// Phases computes the mean per-phase latencies over this tenant's
// completed jobs only.
func (t *Tenant) Phases() PhaseStats {
	return PhasesOf(t.records)
}
