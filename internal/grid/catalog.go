package grid

import (
	"sort"
	"time"

	"repro/internal/arena"
	"repro/internal/sim"
)

// Replica is one physical copy of a registered file, pinned to a site (or
// unplaced, for files registered through the location-free path).
type Replica struct {
	// Site is where the copy lives. The zero site means "unplaced": the
	// replica is treated as local to every consumer.
	Site Site
	// SizeMB is the file size in MB (identical across replicas of one
	// GFN).
	SizeMB float64
}

// catEntry is one GFN's replica set. Replicas are kept sorted by site key
// with at most one replica per site, so every traversal — best-replica
// selection, Replicas, stage planning — is deterministic regardless of
// registration order. Entries are arena-allocated by the catalog, and the
// single-replica common case (every fresh registration) lives in the
// entry's inline array, so registering an output is allocation-free.
type catEntry struct {
	sizeMB float64
	reps   []Replica
	inline [1]Replica
}

// Catalog is the replica catalog: it maps Grid File Names (GFNs) to
// replica sets, each replica pinned to a site (a cluster's close storage
// element, or unplaced for the location-free compatibility path). The
// registration discipline is the real one: a job may only consume files
// that have been registered, and registers its outputs on completion at
// the site that produced them, which is how both data dependencies and
// data locality propagate through the grid. A LinkModel attached to the
// catalog prices the movement of a replica to a consuming site; stage-in
// picks the cheapest replica under that model.
type Catalog struct {
	files  map[string]*catEntry
	links  LinkModel
	fabric *Fabric

	// Active storage state (see storage.go): per-site storage elements,
	// grid-level darkness, the k-replication floor and its
	// repair hook, and the engine clock for access-recency accounting.
	// All of it is inert until a storage element is configured or a grid
	// goes dark, which is what keeps the location-blind paths (and their
	// goldens) bit-identical.
	storage   map[Site]*seState
	gridDark  map[string]bool
	darkGrids int
	floor     int
	repair    func(name string)
	now       func() sim.Time

	// entries arena-allocates the catEntry records (chunked; entries live
	// for the catalog's lifetime, so re-registration reuses the existing
	// entry instead of minting a new one).
	entries arena.Chunked[catEntry]
}

// NewCatalog returns an empty catalog with the all-local link model
// (LocalLinks): until a federation attaches a real topology via SetLinks,
// every replica is as good as any other and the transfer model reduces to
// the location-blind one.
func NewCatalog() *Catalog {
	return &Catalog{files: make(map[string]*catEntry), links: LocalLinks()}
}

// SetLinks attaches the link model that prices replica movement. A nil
// model resets to LocalLinks. Federations call this once at construction;
// swapping models mid-run is legal but changes stage-in costs from that
// virtual instant on.
func (c *Catalog) SetLinks(lm LinkModel) {
	if lm == nil {
		lm = LocalLinks()
	}
	c.links = lm
}

// Links returns the link model pricing replica movement.
func (c *Catalog) Links() LinkModel { return c.links }

// SetFabric attaches the contended WAN fabric that remote stage-in legs
// acquire channels on. Nil detaches it, restoring the pure-delay remote
// transfer model (each job's remote fetch is an uncontended delay of the
// plan's RemoteTime — the PR 4 behaviour, and the default).
func (c *Catalog) SetFabric(f *Fabric) { c.fabric = f }

// Fabric returns the attached contended WAN fabric (nil when remote
// fetches are uncontended pure delays).
func (c *Catalog) Fabric() *Fabric { return c.fabric }

// AllLocal reports whether the attached link model is the all-local one
// (LocalLinks), under which every fetch estimate is provably zero — the
// matchmaker's and the federation broker's licence to skip stage planning
// entirely on their ranking hot paths. Any other model answers false,
// even one whose links are all local: planning still feeds the broker's
// local-bytes affinity.
func (c *Catalog) AllLocal() bool {
	l, ok := c.links.(*Links)
	return ok && l.blind
}

// Register records a file and its size in MB as a single unplaced
// replica, the location-free compatibility path: an unplaced replica is
// local to every consumer, so single-grid code that never names locations
// keeps its exact pre-locality transfer behaviour. Re-registering
// replaces the whole replica set, matching LCG2 semantics where a GFN
// points at the latest replica set.
func (c *Catalog) Register(name string, sizeMB float64) {
	c.RegisterAt(name, sizeMB, Site{})
}

// RegisterAt records a file as a single replica at the given site,
// replacing any previous replica set for the name. Completed jobs use it
// to register their outputs at the cluster that produced them. The new
// replica joins its site's storage element (evicting under capacity
// pressure), replaced replicas leave theirs, and a replication floor
// above one fires the repair hook for the fresh single-copy set.
func (c *Catalog) RegisterAt(name string, sizeMB float64, site Site) {
	e, ok := c.files[name]
	if ok {
		if len(c.storage) > 0 {
			for _, r := range e.reps {
				c.removeResident(name, r.Site)
			}
		}
	} else {
		e = c.entries.New()
		c.files[name] = e
	}
	e.sizeMB = sizeMB
	e.inline[0] = Replica{Site: site, SizeMB: sizeMB}
	e.reps = e.inline[:1]
	// The replaced copies left their evictable indexes with their
	// residency, and the new one joins its element outside the index: a
	// single-copy file is never over floorOr1(), so there is nothing to
	// refile.
	c.addResident(name, sizeMB, site)
	c.checkFloor(name, e)
}

// AddReplica records an additional copy of an already-registered file at
// the given site, reporting false (and changing nothing) when the name is
// unknown. Adding a replica at a site that already holds one is a no-op.
func (c *Catalog) AddReplica(name string, site Site) bool {
	e, ok := c.files[name]
	if !ok {
		return false
	}
	i := sort.Search(len(e.reps), func(i int) bool { return e.reps[i].Site.compare(site) >= 0 })
	if i < len(e.reps) && e.reps[i].Site == site {
		return true
	}
	e.reps = append(e.reps, Replica{})
	copy(e.reps[i+1:], e.reps[i:])
	e.reps[i] = Replica{Site: site, SizeMB: e.sizeMB}
	c.addResident(name, e.sizeMB, site)
	c.refile(name, e)
	return true
}

// dropReplica removes the site's replica from the entry's sorted set,
// reporting whether one was present, and re-files the file's remaining
// resident copies in their evictable indexes. Callers account the dropped
// copy's residency and the replication floor themselves (eviction has
// already done both when it gets here).
func (c *Catalog) dropReplica(name string, site Site) bool {
	e, ok := c.files[name]
	if !ok {
		return false
	}
	i := sort.Search(len(e.reps), func(i int) bool { return e.reps[i].Site.compare(site) >= 0 })
	if i >= len(e.reps) || e.reps[i].Site != site {
		return false
	}
	e.reps = append(e.reps[:i], e.reps[i+1:]...)
	c.refile(name, e)
	return true
}

// Replicas returns a copy of the file's replica set in deterministic site
// order (nil for an unregistered name).
//
//moteur:keep test observer of replica placement, eviction and repair
func (c *Catalog) Replicas(name string) []Replica {
	e, ok := c.files[name]
	if !ok {
		return nil
	}
	out := make([]Replica, len(e.reps))
	copy(out, e.reps)
	return out
}

// Lookup returns the size of a registered file.
func (c *Catalog) Lookup(name string) (sizeMB float64, ok bool) {
	e, ok := c.files[name]
	if !ok {
		return 0, false
	}
	return e.sizeMB, true
}

// Has reports whether the file is registered.
func (c *Catalog) Has(name string) bool {
	_, ok := c.files[name]
	return ok
}

// Len returns the number of registered files.
func (c *Catalog) Len() int { return len(c.files) }

// Names returns all registered names in lexical order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.files))
	//moteur:orderinvariant keys are sorted immediately after collection
	for n := range c.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// best returns the cheapest live replica of the file for a consumer at
// site `to` under the catalog's link model, with its link and the live
// replica count. Replica selection is deterministic: the estimated fetch
// cost (Link.Cost) is minimized among replicas whose storage is up, and
// ties — every local replica ties at zero — resolve to the first replica
// in site-key order. ok is false for an unregistered name; live is zero
// when the name is registered but every copy is dark or evicted (the
// returned replica is meaningless then). While no storage is dark the
// liveness checks are skipped entirely, preserving the pre-storage scan.
func (c *Catalog) best(name string, to Site) (rep Replica, link Link, live int, ok bool) {
	e, ok := c.files[name]
	if !ok {
		return Replica{}, Link{}, 0, false
	}
	if !c.anyDark() {
		if len(e.reps) == 0 {
			return Replica{}, Link{}, 0, true
		}
		bestRep, bestLink := e.reps[0], c.links.Link(e.reps[0].Site, to)
		bestCost := bestLink.Cost(e.sizeMB)
		for _, rep := range e.reps[1:] {
			if bestCost == 0 {
				break // a local replica cannot be beaten
			}
			link := c.links.Link(rep.Site, to)
			if cost := link.Cost(e.sizeMB); cost < bestCost {
				bestRep, bestLink, bestCost = rep, link, cost
			}
		}
		return bestRep, bestLink, len(e.reps), true
	}
	var bestRep Replica
	var bestLink Link
	var bestCost time.Duration
	for _, r := range e.reps {
		if c.SiteDark(r.Site) {
			continue
		}
		l := c.links.Link(r.Site, to)
		cost := l.Cost(e.sizeMB)
		if live == 0 || cost < bestCost {
			bestRep, bestLink, bestCost = r, l, cost
		}
		live++
	}
	return bestRep, bestLink, live, true
}

// StagePlan is the resolved transfer work of one job's input set at a
// consuming site: for every input the cheapest replica was chosen under
// the catalog's link model, and the inputs are partitioned into the local
// class (staged through the consuming cluster's close-SE link, exactly as
// the location-blind model staged everything) and the remote class
// (fetched over intra-grid/WAN links first, at the link's own bandwidth
// and per-file latency).
type StagePlan struct {
	// LocalMB and LocalFiles cover inputs whose chosen replica is local
	// to the consumer.
	LocalMB    float64
	LocalFiles int
	// RemoteMB and RemoteFiles cover inputs fetched over non-local links.
	RemoteMB    float64
	RemoteFiles int
	// RemoteTime is the serialized fetch time of the remote class: the
	// sum over remote inputs of the chosen link's latency plus
	// size/bandwidth.
	RemoteTime time.Duration
	// Remote breaks the remote class down by source grid, in lexical
	// source-grid order — the legs a contended stage-in walks, acquiring
	// each leg's (fromGrid, toGrid) channel for the leg's fetch time. It
	// is only materialized on the stage-in path; Plan leaves it nil so the
	// broker ranking hot paths stay allocation-free.
	Remote []RemoteLeg
	// Missing is the first input (in declaration order) absent from the
	// catalog; the plan is unusable when it is non-empty.
	Missing string
	// Unavailable is the first input (in declaration order) that is
	// registered but has no live replica — every copy sits on dark
	// storage or was evicted away. The plan is unusable when it is
	// non-empty, but unlike Missing the condition is transient: stage-in
	// retries it with backoff, and only exhausted retries turn it into
	// ErrReplicaLost.
	Unavailable string
	// FragileMB and FragileTime total the inputs whose chosen replica is
	// the file's last live copy reachable only over a non-local link: the
	// bytes at risk and their fetch cost. A consumer on the grid holding
	// the last copy scores zero (the copy is local — no WAN exposure), so
	// the replica-safety term of the ranked broker steers jobs toward the
	// data whose loss would strand them.
	FragileMB   float64
	FragileTime time.Duration
}

// RemoteLeg is the remote class of one source grid within a stage plan:
// the inputs fetched from replicas resident on that grid, aggregated so
// the whole leg holds the pair's WAN channel once for its serialized
// fetch time.
type RemoteLeg struct {
	// FromGrid names the grid the leg's replicas live on.
	FromGrid string
	// SizeMB and Files total the leg's inputs.
	SizeMB float64
	Files  int
	// Time is the leg's serialized fetch time (latency plus
	// size/bandwidth summed over its files).
	Time time.Duration
	// Sites lists the source sites contributing files to the leg, in
	// first-contribution order — the liveness set the contended stage-in
	// checks at leg start and completion, so a storage element dying
	// mid-fetch fails the leg.
	Sites []Site
}

// Plan resolves the inputs against the replica catalog for a consumer at
// site `to`: each input's cheapest replica is chosen and classified. The
// first unregistered input aborts planning and is reported in
// StagePlan.Missing. Plan is read-only, deterministic and allocation-free
// (it leaves StagePlan.Remote nil), so brokers and cluster rankers use it
// for cost estimates with exactly the semantics stage-in will pay.
func (c *Catalog) Plan(inputs []string, to Site) StagePlan {
	var p StagePlan
	c.planInto(&p, inputs, to, false)
	return p
}

// stagePlanInto is the plan of the actual stage-in path: the per-source-
// grid legs (StagePlan.Remote) are materialized into the caller-owned
// plan, whose backing arrays are reused across re-staging rounds,
// attempts and jobs, and the chosen replicas' access records are touched
// (the only place accesses count — planning for ranking stays read-only,
// so broker estimates never distort eviction recency or popularity).
func (c *Catalog) stagePlanInto(p *StagePlan, inputs []string, to Site) {
	c.planInto(p, inputs, to, true)
}

// reset clears the plan for reuse, keeping the remote-leg backing array
// (and, through addLeg's spare-backing recycling, the legs' Sites arrays)
// so a recycled plan materializes its legs without allocating.
func (p *StagePlan) reset() {
	remote := p.Remote[:0]
	*p = StagePlan{Remote: remote}
}

// planInto resolves the inputs into the caller-owned plan, which is reset
// first. It is the engine behind Plan and stagePlanInto: stage selects the
// stage-in variant, which materializes legs and touches access records.
func (c *Catalog) planInto(p *StagePlan, inputs []string, to Site, stage bool) {
	p.reset()
	for _, name := range inputs {
		rep, link, live, ok := c.best(name, to)
		if !ok {
			p.Missing = name
			return
		}
		if live == 0 {
			p.Unavailable = name
			return
		}
		if stage {
			c.touch(name, rep)
		}
		if live == 1 && !link.Local {
			p.FragileMB += rep.SizeMB
			p.FragileTime += link.Cost(rep.SizeMB)
		}
		if link.Local {
			p.LocalMB += rep.SizeMB
			p.LocalFiles++
		} else {
			cost := link.Cost(rep.SizeMB)
			p.RemoteMB += rep.SizeMB
			p.RemoteFiles++
			p.RemoteTime += cost
			if stage {
				p.addLeg(rep.Site, rep.SizeMB, cost)
			}
		}
	}
}

// addLeg folds one remote fetch into its source grid's leg, keeping the
// legs sorted by source grid so the contended stage-in walks channels in
// an order independent of input declaration order, and recording the
// replica's site in the leg's liveness set.
func (p *StagePlan) addLeg(from Site, sizeMB float64, cost time.Duration) {
	i := sort.Search(len(p.Remote), func(i int) bool { return p.Remote[i].FromGrid >= from.Grid })
	if i < len(p.Remote) && p.Remote[i].FromGrid == from.Grid {
		l := &p.Remote[i]
		l.SizeMB += sizeMB
		l.Files++
		l.Time += cost
		for _, s := range l.Sites {
			if s == from {
				return
			}
		}
		l.Sites = append(l.Sites, from)
		return
	}
	// Steal the Sites backing of the slot the append is about to zero —
	// a recycled plan keeps its former legs' site arrays in the backing
	// array beyond len, so re-materializing legs allocates nothing once
	// the plan is warm.
	var spare []Site
	if n := len(p.Remote); n < cap(p.Remote) {
		spare = p.Remote[:n+1][n].Sites[:0]
	}
	p.Remote = append(p.Remote, RemoteLeg{})
	copy(p.Remote[i+1:], p.Remote[i:])
	p.Remote[i] = RemoteLeg{FromGrid: from.Grid, SizeMB: sizeMB, Files: 1, Time: cost, Sites: append(spare, from)}
}
