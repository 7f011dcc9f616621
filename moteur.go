// Package moteur is the public API of this reproduction of
//
//	Glatard, Montagnat, Pennec — "Efficient services composition for
//	grid-enabled data-intensive applications", HPDC 2006.
//
// It re-exports the building blocks needed to define service-based
// workflows, execute them with the MOTEUR enactor under any combination of
// data parallelism, service parallelism and job grouping, and reproduce
// the paper's evaluation on a simulated EGEE-style production grid.
//
// The quickest start:
//
//	eng := moteur.NewEngine()
//	g := moteur.NewGrid(eng, moteur.DefaultGridConfig())
//	wf := moteur.NewWorkflow("demo")
//	// … add sources, wrapper-backed processors, links …
//	enactor, _ := moteur.NewEnactor(eng, wf, moteur.Options{
//		DataParallelism:    true,
//		ServiceParallelism: true,
//		JobGrouping:        true,
//	})
//	result, _ := enactor.Run(inputs)
//
// See examples/ for complete programs and internal/bronze for the paper's
// full Bronze Standard application.
package moteur

import (
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/descriptor"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/iterstrat"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/scufl"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Simulation engine.
type (
	// Engine is the discrete-event simulation engine everything runs on.
	Engine = sim.Engine
	// VirtualTime is an instant of simulated time.
	VirtualTime = sim.Time
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Grid substrate.
type (
	// Grid is the simulated EGEE-style infrastructure.
	Grid = grid.Grid
	// GridConfig parametrizes the infrastructure model.
	GridConfig = grid.Config
	// JobRecord carries per-phase timestamps of one grid job.
	JobRecord = grid.JobRecord
)

// NewGrid builds a grid on the engine.
func NewGrid(eng *Engine, cfg GridConfig) *Grid { return grid.New(eng, cfg) }

// GridTenant is a named submission handle on a shared grid: jobs submitted
// through it are tagged for per-tenant accounting and scheduled through
// the fair-share gate. Obtain one with Grid.Tenant(name).
type GridTenant = grid.Tenant

// DefaultGridConfig returns the calibrated production-grid model.
func DefaultGridConfig() GridConfig { return grid.DefaultConfig() }

// IdealGridConfig returns a frictionless grid: zero middleware overhead,
// homogeneous nodes, no background load. On it the enactor reproduces the
// theoretical model of Sec. 3.5 exactly.
func IdealGridConfig(nodes int) GridConfig { return grid.IdealConfig(nodes) }

// Workflow model.
type (
	// Workflow is the application graph of processors, ports and links.
	Workflow = workflow.Workflow
	// Processor is one node of the graph.
	Processor = workflow.Processor
	// Strategy is an iteration-strategy tree (dot/cross products).
	Strategy = iterstrat.Strategy
)

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow { return workflow.New(name) }

// Iteration strategies (Sec. 2.2, Fig. 3).
var (
	// Port is a leaf strategy over one input port.
	Port = iterstrat.Port
	// Dot pairs items with identical provenance indices: min(n,m) results.
	Dot = iterstrat.Dot
	// Cross pairs all items of each input: n×m results.
	Cross = iterstrat.Cross
	// ParseStrategy reads the compact notation, e.g. "cross(dot(a,b),c)".
	ParseStrategy = iterstrat.Parse
)

// Services.
type (
	// Service is the black-box application component abstraction.
	Service = services.Service
	// Wrapper is the generic submission wrapper (Sec. 3.6, Fig. 8).
	Wrapper = services.Wrapper
	// Grouped is a virtual service fusing several wrappers into one job.
	Grouped = services.Grouped
	// Local is a single-host service with bounded concurrency.
	Local = services.Local
	// Request is one service invocation's bound inputs.
	Request = services.Request
	// Response is one invocation's outcome.
	Response = services.Response
	// Descriptor is an executable descriptor document.
	Descriptor = descriptor.Description
)

// Service constructors and descriptor parsing.
var (
	NewLocal        = services.NewLocal
	NewWrapper      = services.NewWrapper
	NewGrouped      = services.NewGrouped
	ConstantRuntime = services.ConstantRuntime
	ParseDescriptor = descriptor.Parse
)

// Enactor (the paper's contribution).
type (
	// Enactor executes one workflow with the selected optimizations.
	Enactor = core.Enactor
	// Options selects data/service parallelism and job grouping.
	Options = core.Options
	// Result is the outcome of one execution.
	Result = core.Result
	// Trace is the per-invocation execution record.
	Trace = core.Trace
)

// NewEnactor prepares an execution of wf on eng. With Options.JobGrouping
// the workflow is first rewritten by AutoGroup.
func NewEnactor(eng *Engine, wf *Workflow, opts Options) (*Enactor, error) {
	return core.New(eng, wf, opts)
}

// AutoGroup fuses eligible sequential wrapper chains into single-job
// grouped processors (the JG optimization), returning a new workflow.
var AutoGroup = core.AutoGroup

// Multi-tenant campaigns: M workflows, each with its own enactor and
// options, contending for one shared grid (see internal/campaign).
type (
	// CampaignTenant describes one tenant: name, arrival instant,
	// enactor options, workflow builder, optional adaptive granularity.
	CampaignTenant = campaign.TenantSpec
	// CampaignBuild constructs a tenant's workflow against its grid
	// handle.
	CampaignBuild = campaign.BuildFunc
	// CampaignReport is the campaign outcome: per-tenant results plus
	// global grid statistics.
	CampaignReport = campaign.Report
	// CampaignTenantResult is one tenant's outcome.
	CampaignTenantResult = campaign.TenantResult
	// AdaptiveGranularity opts a tenant into mid-campaign job-granularity
	// retuning driven by OptimalBatch on observed overheads.
	AdaptiveGranularity = campaign.AdaptiveGranularity
)

// Campaign driver and helpers.
var (
	// StartCampaign schedules tenants on an engine and campaign site;
	// run the returned execution to completion for the report.
	StartCampaign = campaign.StartSite
	// CampaignOnGrid adapts one shared grid into a campaign site.
	CampaignOnGrid = campaign.OnGrid
	// SyntheticChain builds the standard campaign workload: a linear
	// pipeline of wrapper-backed stages with tenant-unique file names.
	SyntheticChain = campaign.SyntheticChain
	// SyntheticChainPlaced is SyntheticChain with a skew fraction of the
	// inputs registered as replicas at a home site (locality scenarios).
	SyntheticChainPlaced = campaign.SyntheticChainPlaced
)

// CampaignAdmission is the arrival-gating policy of an admitted campaign.
type CampaignAdmission = campaign.Admission

// Federated multi-grid brokering: N independently-configured grids behind
// one submission handle, a pluggable broker policy picking the target
// grid per job (see internal/federation).
type (
	// Federation is a set of member grids behind one brokered submission
	// handle, sharing an engine and a replica catalog.
	Federation = federation.Federation
	// FederationConfig assembles a federation: member grid specs, broker
	// policy, cross-grid re-brokering budget, telemetry smoothing.
	FederationConfig = federation.Config
	// FederationGridSpec names and configures one member grid.
	FederationGridSpec = federation.GridSpec
	// FederationTenant is a named submission handle brokered across the
	// member grids; it satisfies Submitter like GridTenant does.
	FederationTenant = federation.Tenant
	// FederationTelemetry is the smoothed per-grid overhead view the
	// ranked policy feeds on.
	FederationTelemetry = federation.Telemetry
	// BrokerPolicy decides which member grid receives each submission.
	BrokerPolicy = federation.Policy
	// FederationOutage schedules a member grid going dark for a window
	// (in-flight jobs fail and re-broker elsewhere; telemetry ages out on
	// recovery). Outages can also be driven with Federation.SetDown and
	// Federation.SetUp.
	FederationOutage = federation.Outage
)

// Federation constructors and broker policies.
var (
	// NewFederation builds a federation of the configured grids on the
	// engine, with a shared replica catalog.
	NewFederation = federation.New
	// FederationRoundRobin cycles member grids per submission.
	FederationRoundRobin = federation.RoundRobin
	// FederationLeastBacklog submits to the lowest-occupancy grid.
	FederationLeastBacklog = federation.LeastBacklog
	// FederationRanked scores grids by observed submission and queueing
	// overhead EWMAs scaled by current backlog, plus the estimated cost
	// of moving the job's data there (the default policy).
	FederationRanked = federation.Ranked
	// FederationRankedBlind is the ranked policy without the transfer-cost
	// term — the control arm of locality experiments.
	FederationRankedBlind = federation.RankedLocalityBlind
	// FederationPinned sends everything to one grid (the single-grid
	// baseline federated scenarios are compared against).
	FederationPinned = federation.Pinned
	// FederationRankedSafe is the ranked policy with storage safety
	// priced in: storage-dark members pay a flat penalty and picks whose
	// stage-in would gamble on a last live replica over a non-local link
	// pay their fragile fetch time.
	FederationRankedSafe = federation.RankedSafe
)

// Data locality: the replica catalog pins files to sites and a link model
// prices moving them (see internal/grid's catalog and link files).
type (
	// DataSite identifies a storage location: a cluster of a named grid.
	DataSite = grid.Site
	// DataLink is one edge of the transfer topology.
	DataLink = grid.Link
	// DataLinkModel prices replica movement between sites.
	DataLinkModel = grid.LinkModel
	// DataLinks is the default three-class link model (intra-cluster ≪
	// intra-grid ≪ WAN).
	DataLinks = grid.Links
	// DataGridPair is one ordered (fromGrid, toGrid) edge of the
	// grid-level transfer topology.
	DataGridPair = grid.GridPair
	// DataLinkMatrix prices replica movement per ordered grid pair,
	// falling back to a class model for unlisted pairs.
	DataLinkMatrix = grid.LinkMatrix
	// DataReplica is one physical copy of a registered file at a site.
	DataReplica = grid.Replica
	// WANFabric is the contended WAN fabric: one capacity-limited shared
	// channel per ordered grid pair, so concurrent cross-grid fetches
	// queue instead of overlapping for free. Attach one to a catalog
	// with Catalog.SetFabric, or let FederationConfig.WANStreams build
	// it.
	WANFabric = grid.Fabric
)

// Link-model and fabric constructors.
var (
	// DefaultWANLinks prices cross-grid fetches at a 2 MB/s, 5 s-latency
	// WAN link (the federation default).
	DefaultWANLinks = grid.DefaultWAN
	// AllLocalLinks treats every replica as local — the location-blind
	// transfer model (PR 3 free cross-grid staging).
	AllLocalLinks = grid.LocalLinks
	// NewWANFabric builds a contended WAN fabric with the given default
	// per-pair stream count on the engine.
	NewWANFabric = grid.NewFabric
)

// Active storage elements: capacity, eviction, SE outages and replica
// repair (see internal/grid's storage file and DESIGN.md).
type (
	// StorageEvictionPolicy totally orders a storage element's resident
	// replicas by eviction preference.
	StorageEvictionPolicy = grid.EvictionPolicy
	// StorageFile is the per-replica residency view an eviction policy
	// ranks: size, last access and stage-in hit count.
	StorageFile = grid.SEFile
	// StorageElementStat is one storage element's telemetry: capacity,
	// residency, peak and eviction totals.
	StorageElementStat = grid.SEStat
)

// Storage eviction policies and failure sentinels.
var (
	// EvictLRU drains the longest-unaccessed replica first.
	EvictLRU = grid.EvictLRU
	// EvictPopularity drains the least-fetched replica first.
	EvictPopularity = grid.EvictPopularity
	// ErrReplicaLost marks a job whose input lost every live replica:
	// terminal, and never re-brokered (the catalog is shared, so the
	// data is equally lost from every member grid).
	ErrReplicaLost = grid.ErrReplicaLost
)

// Data identity.
type (
	// Item is a data token with provenance.
	Item = provenance.Item
	// History is a node of an item's history tree.
	History = provenance.Node
)

// Theoretical model (Sec. 3.5) and analysis metrics (Sec. 5.1).
type (
	// Matrix is the T[i][j] treatment-duration matrix of the model.
	Matrix = model.Matrix
	// Line is a fitted time-versus-size regression.
	Line = metrics.Line
)

// Model formulas (equations 1–4) and metric helpers.
var (
	ModelSequential = model.Sequential
	ModelDP         = model.DP
	ModelSP         = model.SP
	ModelDSP        = model.DSP
	Fit             = metrics.Fit
	SpeedUp         = metrics.SpeedUp
	// OptimalBatch predicts the job-granularity sweet spot (Sec. 5.4
	// future work; see Options.DataGroupSize for the enactor-side knob).
	OptimalBatch = model.OptimalBatch
)

// GranularityParams parametrizes the job-granularity model.
type GranularityParams = model.GranularityParams

// Workflow and data-set documents.
var (
	// ParseScufl reads a Scufl-dialect workflow document.
	ParseScufl = scufl.Parse
	// WriteScufl renders a workflow back to the dialect.
	WriteScufl = scufl.Write
	// ParseDataSet reads an input data-set document (Sec. 4.1).
	ParseDataSet = dataset.Parse
)

// ScuflOptions configures ParseScufl (service registry, target grid).
type ScuflOptions = scufl.Options

// ServiceRegistry binds service names referenced by a Scufl document.
type ServiceRegistry = scufl.Registry

// Scenario compiler: declarative JSON worlds for the federated layer.
type (
	// Scenario is a declarative description of a federated campaign
	// world — grids, links, outages, storage, broker, tenant mix.
	Scenario = scenario.Spec
	// ScenarioWorld is a compiled scenario ready to run.
	ScenarioWorld = scenario.World
)

// Scenario loading, compilation and fingerprinting.
var (
	// LoadScenario reads, parses and validates a scenario file; errors
	// are anchored to source lines.
	LoadScenario = scenario.Load
	// ParseScenario parses and validates scenario bytes.
	ParseScenario = scenario.Parse
	// CompileScenario turns a validated scenario into a runnable world
	// on the given engine.
	CompileScenario = scenario.Compile
	// ScenarioFingerprint condenses a scenario run into one comparable
	// determinism fingerprint.
	ScenarioFingerprint = scenario.Fingerprint
)

// Online broker daemon (cmd/moteurd): serve a compiled scenario world as
// a long-running process — virtual time paced against the wall clock,
// job submissions and outage commands injected over HTTP between engine
// steps, live telemetry on /metrics, periodic JSON state snapshots.
type (
	// Daemon is a running moteurd instance over one compiled world.
	Daemon = daemon.Daemon
	// DaemonConfig assembles a Daemon (world, warp factor, HTTP address,
	// snapshot directory, clock).
	DaemonConfig = daemon.Config
	// DaemonClock abstracts wall-clock time for the daemon's pacing
	// loop; tests substitute fakes.
	DaemonClock = daemon.Clock
	// DaemonSnapshot is the daemon's JSON state-snapshot document.
	DaemonSnapshot = daemon.Snapshot
	// EventInbox is the concurrency-safe injection queue that carries
	// external events onto a deterministic engine between steps.
	EventInbox = sim.Inbox
)

// Daemon construction and the production clock.
var (
	// NewDaemon boots a daemon over a compiled scenario world.
	NewDaemon = daemon.New
	// RealDaemonClock is the production wall clock for
	// DaemonConfig.Clock.
	RealDaemonClock = daemon.RealClock
)
