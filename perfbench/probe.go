package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// layer names one span kind of the trace: a call into one layer's public
// functions, made from this benchmark's own code.
type layer uint8

const (
	layerStep        layer = iota // the benchmark's own engine stepping loop
	layerReport                   // campaign.Execution.Report
	layerTenantStats              // wrapped Handle.Records/Overheads/Phases
	layerBuild                    // wrapped campaign.TenantSpec.Build
	layerSubmit                   // wrapped Handle.Submit: broker pick, plan, enqueue
	layerDone                     // wrapped done callback: the enactor's reaction
	layerLink                     // wrapped grid.LinkModel.Link
	nLayers
)

// layerNames are the per-layer metric prefixes of each span kind.
var layerNames = [nLayers]string{
	layerStep:        "sim.step",
	layerReport:      "campaign.report",
	layerTenantStats: "campaign.tenant_stats",
	layerBuild:       "core.build",
	layerSubmit:      "broker.submit",
	layerDone:        "core.done",
	layerLink:        "catalog.link",
}

// span is one recorded call. Times are offsets from the tracer's origin;
// Parent indexes the enclosing recorded span (-1 at top level).
type span struct {
	Layer      layer
	Parent     int32
	Start, End time.Duration
}

// frame is an open span on the tracer's stack: child accumulates the
// time its nested spans covered, so self time is duration minus child.
type frame struct {
	layer layer
	idx   int32
	start time.Duration
	child time.Duration
}

// tracer keeps spans in memory while a traced run executes and per-layer
// self/total time on the fly. It is single-goroutine: every caller runs
// inside the engine's control flow (or before it starts / after it
// stops). Link calls are too frequent to keep one by one; they are timed
// and counted like every other span but not stored.
type tracer struct {
	origin time.Time
	run    int
	open   []frame
	spans  []span
	self   [nLayers]time.Duration
	total  [nLayers]time.Duration
	calls  [nLayers]int64
}

func newTracer(run int) *tracer { return &tracer{origin: time.Now(), run: run} }

func (t *tracer) begin(l layer) {
	now := time.Since(t.origin)
	idx := int32(-1)
	if l != layerLink {
		parent := int32(-1)
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i].idx >= 0 {
				parent = t.open[i].idx
				break
			}
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Layer: l, Parent: parent, Start: now})
	}
	t.open = append(t.open, frame{layer: l, idx: idx, start: now})
}

func (t *tracer) end() {
	now := time.Since(t.origin)
	f := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := now - f.start
	t.self[f.layer] += d - f.child
	t.total[f.layer] += d
	t.calls[f.layer]++
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = now
	}
}

// selfSum is the self time of every layer added up: with properly nested
// spans it equals the time the top-level spans cover.
func (t *tracer) selfSum() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

// write stores the recorded spans as gzipped CSV, one span a line:
// name,start_ns,end_ns,parent,run.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,run")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", layerNames[s.Layer], s.Start, s.End, s.Parent, t.run)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// probe is the benchmark's view into a run: call counts and the
// done-exactly-once ledger are always kept (they feed the audits and the
// exact per-layer counts); host times per call are kept only when a
// tracer is attached. Submit latency samples are always kept: they are
// the closed workloads' submit_p50_ms/submit_p99_ms.
type probe struct {
	tr          *tracer
	submits     int
	fired       []uint8 // per submission: how many times its done ran
	submitNs    []float64
	statsCalls  int
	linkCalls   int64
	peakPending int
}

// site wraps a campaign.Site so every tenant handle it hands out is
// probed. Handles are memoized: handle identity is tenancy identity
// (services built on a handle submit as that tenant).
type site struct {
	campaign.Site
	p       *probe
	handles map[string]*handle
}

func (p *probe) site(inner campaign.Site) *site {
	return &site{Site: inner, p: p, handles: make(map[string]*handle)}
}

// Tenant implements campaign.Site.
func (s *site) Tenant(name string) campaign.Handle {
	if h, ok := s.handles[name]; ok {
		return h
	}
	h := &handle{inner: s.Site.Tenant(name), p: s.p}
	s.handles[name] = h
	return h
}

// handle wraps one tenant's campaign.Handle: Submit is timed and its
// done callback counted; the statistics reads are counted.
type handle struct {
	inner campaign.Handle
	p     *probe
}

func (h *handle) Name() string           { return h.inner.Name() }
func (h *handle) Engine() *sim.Engine    { return h.inner.Engine() }
func (h *handle) Catalog() *grid.Catalog { return h.inner.Catalog() }
func (h *handle) Records() []*grid.JobRecord {
	defer h.p.stats()()
	return h.inner.Records()
}
func (h *handle) Overheads() grid.OverheadStats {
	defer h.p.stats()()
	return h.inner.Overheads()
}
func (h *handle) Phases() grid.PhaseStats {
	defer h.p.stats()()
	return h.inner.Phases()
}

// stats counts one tenant statistics read and opens its span; the
// returned func closes it.
func (p *probe) stats() func() {
	p.statsCalls++
	if p.tr == nil {
		return func() {}
	}
	p.tr.begin(layerTenantStats)
	return p.tr.end
}

// Submit implements services.Submitter.
func (h *handle) Submit(spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	p := h.p
	i := p.submits
	p.submits++
	p.fired = append(p.fired, 0)
	wrapped := func(r *grid.JobRecord) {
		p.fired[i]++
		if p.tr == nil {
			done(r)
			return
		}
		p.tr.begin(layerDone)
		done(r)
		p.tr.end()
	}
	if p.tr != nil {
		p.tr.begin(layerSubmit)
	}
	t0 := time.Now()
	rec := h.inner.Submit(spec, wrapped)
	p.submitNs = append(p.submitNs, float64(time.Since(t0)))
	if p.tr != nil {
		p.tr.end()
	}
	return rec
}

// wrapBuilds times every tenant's Build. With substitute set the Build
// is handed a probed handle instead of the one it was given, so the
// services it creates submit through the probe: that is how runs whose
// campaign site the benchmark cannot replace (the daemon boots its own)
// still see every campaign submission.
func (p *probe) wrapBuilds(specs []campaign.TenantSpec, substitute bool) {
	handles := make(map[campaign.Handle]*handle)
	for i := range specs {
		build := specs[i].Build
		specs[i].Build = func(t campaign.Handle) (*workflow.Workflow, map[string][]string, error) {
			if substitute {
				h, ok := handles[t]
				if !ok {
					h = &handle{inner: t, p: p}
					handles[t] = h
				}
				t = h
			}
			if p.tr != nil {
				p.tr.begin(layerBuild)
				defer p.tr.end()
			}
			return build(t)
		}
	}
}

// links wraps the catalog's link model to count (and, traced, time) the
// link lookups stage planning and broker ranking make.
type links struct {
	inner grid.LinkModel
	p     *probe
}

// Link implements grid.LinkModel.
func (l links) Link(from, to grid.Site) grid.Link {
	l.p.linkCalls++
	if l.p.tr == nil {
		return l.inner.Link(from, to)
	}
	l.p.tr.begin(layerLink)
	lk := l.inner.Link(from, to)
	l.p.tr.end()
	return lk
}

// wrapLinks installs the link wrapper, but only over a non-local model:
// the all-local model is recognised by type and lets planning be skipped,
// so wrapping it would change what gets planned.
func (p *probe) wrapLinks(cat *grid.Catalog) {
	if cat.AllLocal() {
		return
	}
	cat.SetLinks(links{inner: cat.Links(), p: p})
}

// step drives the engine until the execution is done or the queue
// drains, sampling the pending-event count every 256 steps.
func (p *probe) step(eng *sim.Engine, x *campaign.Execution) {
	if p.tr != nil {
		p.tr.begin(layerStep)
		defer p.tr.end()
	}
	n := 0
	for !x.Done() && eng.Step() {
		if n++; n&255 == 0 {
			p.peakPending = max(p.peakPending, eng.Pending())
		}
	}
}

// doneLedger reports how many submissions saw their done callback run
// other than exactly once.
func (p *probe) doneLedger() (never, repeated int) {
	for _, n := range p.fired {
		switch {
		case n == 0:
			never++
		case n > 1:
			repeated++
		}
	}
	return never, repeated
}
