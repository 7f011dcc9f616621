package grid

import (
	"slices"
	"sort"

	"repro/internal/sim"
)

// SEFile describes one file resident on a storage element, as eviction
// policies see it: identity, size, and the access history the catalog
// records every time a stage-in actually fetches the file (planning and
// ranking do not count as accesses).
type SEFile struct {
	// Name is the file's GFN.
	Name string
	// SizeMB is the resident copy's size.
	SizeMB float64
	// LastAccess is the virtual instant the copy was last staged from (or
	// registered, for a never-read copy).
	LastAccess sim.Time
	// Hits counts the stage-ins that fetched this copy.
	Hits uint64
}

// EvictionPolicy orders a storage element's resident files for eviction
// under capacity pressure. Implementations must be pure functions of the
// two candidates — eviction runs inside the single-threaded engine and
// golden tests pin its drain order — and must totally order distinct
// candidates (use the file name as the final tie-break). The total order
// is load-bearing: the victim is the policy minimum over an unordered
// evictable index, and only a total order makes that minimum the same
// whatever order the index is scanned in.
type EvictionPolicy interface {
	// Name identifies the policy in reports and CLI tables.
	Name() string
	// Before reports whether a should be evicted before b.
	Before(a, b SEFile) bool
}

// EvictLRU returns the least-recently-used eviction policy: the candidate
// with the oldest last access drains first, names breaking ties.
func EvictLRU() EvictionPolicy { return lruPolicy{} }

type lruPolicy struct{}

// Name identifies the policy.
func (lruPolicy) Name() string { return "lru" }

// Before implements EvictionPolicy: oldest last access first.
func (lruPolicy) Before(a, b SEFile) bool {
	if a.LastAccess != b.LastAccess {
		return a.LastAccess < b.LastAccess
	}
	return a.Name < b.Name
}

// EvictPopularity returns the popularity-weighted eviction policy: the
// candidate with the fewest recorded accesses drains first (coldest file
// loses its slot regardless of recency), last access and then name
// breaking ties. Under a heavy-tailed access trace it keeps the popular
// head resident where LRU churns it out during a long scan of the tail.
func EvictPopularity() EvictionPolicy { return popularityPolicy{} }

type popularityPolicy struct{}

// Name identifies the policy.
func (popularityPolicy) Name() string { return "popularity" }

// Before implements EvictionPolicy: fewest hits, then oldest access.
func (popularityPolicy) Before(a, b SEFile) bool {
	if a.Hits != b.Hits {
		return a.Hits < b.Hits
	}
	if a.LastAccess != b.LastAccess {
		return a.LastAccess < b.LastAccess
	}
	return a.Name < b.Name
}

// seFile is the per-resident-copy access record of one storage element.
type seFile struct {
	sizeMB     float64
	lastAccess sim.Time
	hits       uint64
}

// seState is one site's active storage element: a capacity gauge over the
// resident replicas and an eviction policy draining it under pressure.
// evictable indexes the residents eviction may drain — those whose file
// has more than floorOr1() replicas — sharing their records with files;
// Catalog.refile keeps it exact on every change to a replica count,
// residency or the floor.
type seState struct {
	site      Site
	gauge     *sim.Gauge
	policy    EvictionPolicy
	files     map[string]*seFile
	evictable map[string]*seFile
	evictions uint64
	evictedMB float64
}

// SEStat summarizes one storage element's state and accounting.
type SEStat struct {
	// Site is the element's location.
	Site Site
	// CapacityMB is the configured capacity (zero means unlimited).
	CapacityMB float64
	// UsedMB is the resident bytes right now.
	UsedMB float64
	// PeakMB is the highest residency observed.
	PeakMB float64
	// Files counts the resident replicas.
	Files int
	// Evictions counts replicas drained under capacity pressure.
	Evictions uint64
	// EvictedMB totals the bytes those evictions freed.
	EvictedMB float64
}

// ConfigureSE gives the site an active storage element with the given
// capacity in MB (non-positive means unlimited) and eviction policy (nil
// means EvictLRU). Replicas already resident at the site are adopted into
// the element's accounting. Configuring the unplaced (zero) site panics:
// an unplaced replica is local everywhere and can neither fill nor lose a
// storage element. Reconfiguring an existing element replaces capacity
// and policy but keeps residency and access history.
func (c *Catalog) ConfigureSE(site Site, capacityMB float64, policy EvictionPolicy) {
	if site.IsZero() {
		panic("grid: ConfigureSE on the unplaced site")
	}
	if policy == nil {
		policy = EvictLRU()
	}
	if c.storage == nil {
		c.storage = make(map[Site]*seState)
	}
	se, ok := c.storage[site]
	if !ok {
		se = &seState{site: site, files: make(map[string]*seFile), evictable: make(map[string]*seFile)}
		c.storage[site] = se
		// Adopt replicas already pinned at the site, in lexical name order
		// so the gauge's floating-point accumulation is deterministic.
		for _, name := range c.Names() {
			e := c.files[name]
			for _, r := range e.reps {
				if r.Site == site {
					se.files[name] = &seFile{sizeMB: e.sizeMB, lastAccess: c.clock()}
					c.refile(name, e)
				}
			}
		}
	}
	se.policy = policy
	gauge := sim.NewGauge(capacityMB)
	for _, name := range sortedKeys(se.files) {
		gauge.Add(se.files[name].sizeMB)
	}
	se.gauge = gauge
}

// setGridDark marks every storage element of the named grid dark (the
// grid itself went down, or its storage did — Grid.SetDown and
// Grid.SetStorageDown both push through here, which is what makes a
// compute-dark grid's replicas unfetchable). Darkening triggers the
// repair hook for files dropped below the replica floor.
func (c *Catalog) setGridDark(name string, dark bool) {
	if c.gridDark[name] == dark {
		return
	}
	if c.gridDark == nil {
		c.gridDark = make(map[string]bool)
	}
	c.gridDark[name] = dark
	if dark {
		c.darkGrids++
		c.scanBelowFloor()
	} else {
		c.darkGrids--
	}
}

// SiteDark reports whether the site's storage is currently unreachable
// because its grid is dark (a compute or storage outage of the whole
// grid). The unplaced site is never dark.
func (c *Catalog) SiteDark(s Site) bool {
	return !s.IsZero() && c.darkGrids > 0 && c.gridDark[s.Grid]
}

// anyDark reports whether any storage is currently dark — the gate that
// keeps replica liveness checks free on the location-blind hot paths.
func (c *Catalog) anyDark() bool { return c.darkGrids > 0 }

// storageActive reports whether any storage feature is in play — a
// configured element or a dark grid. While false, stage-in keeps the
// exact pre-storage event structure (the goldens' bit-identity
// guarantee); while true, remote fetches walk their legs individually so
// each leg can fail against a dead source.
func (c *Catalog) storageActive() bool { return len(c.storage) > 0 || c.anyDark() }

// SetReplicaFloor sets the replication floor k: eviction never drains a
// replica of a file with k or fewer copies, and the repair hook (if set)
// fires whenever a file's live copies drop below k. Zero or one means no
// floor beyond the implicit last-copy protection.
func (c *Catalog) SetReplicaFloor(k int) {
	if k < 0 {
		k = 0
	}
	c.floor = k
	//moteur:orderinvariant refile only moves residents into or out of the evictable sets
	for name, e := range c.files {
		c.refile(name, e)
	}
}

// SetRepairHook registers the callback invoked, synchronously and inside
// the engine's virtual time, whenever a file's live replica count drops
// below the replica floor: on registration (a fresh single-copy file under
// a k≥2 floor), on replica removal, and on darkness transitions (every
// file the outage strands is reported, in lexical name order). The hook
// must not mutate the catalog re-entrantly beyond AddReplica-style calls;
// federations use it to schedule k-replication repair transfers.
func (c *Catalog) SetRepairHook(h func(name string)) { c.repair = h }

// floorOr1 returns the effective eviction floor: at least the last copy
// is always protected.
func (c *Catalog) floorOr1() int {
	if c.floor > 1 {
		return c.floor
	}
	return 1
}

// clock returns the current virtual time (zero before a grid binds its
// engine to the catalog).
func (c *Catalog) clock() sim.Time {
	if c.now == nil {
		return 0
	}
	return c.now()
}

// bindClock attaches the engine's clock for access-recency accounting.
// The first binder wins, so every member grid of a federation (one shared
// engine) can bind without clobbering.
func (c *Catalog) bindClock(eng *sim.Engine) {
	if c.now == nil {
		c.now = eng.Now
	}
}

// checkFloor fires the repair hook when the entry's live replicas fall
// below the floor. An unplaced replica satisfies any floor: it is local
// everywhere and can never go dark, so there is nothing to repair.
func (c *Catalog) checkFloor(name string, e *catEntry) {
	if c.repair == nil || c.floor <= 1 {
		return
	}
	if !c.belowFloor(e) {
		return
	}
	c.repair(name)
}

// belowFloor reports whether the entry's live replica set is below the
// replication floor (never true for entries with an unplaced replica).
func (c *Catalog) belowFloor(e *catEntry) bool {
	live := 0
	for _, r := range e.reps {
		if r.Site.IsZero() {
			return false
		}
		if !c.SiteDark(r.Site) {
			live++
		}
	}
	return live < c.floor
}

// scanBelowFloor reports every file below the replication floor to the
// repair hook, in lexical name order — the darkness-transition sweep.
func (c *Catalog) scanBelowFloor() {
	if c.repair == nil || c.floor <= 1 {
		return
	}
	for _, name := range c.Names() {
		if c.belowFloor(c.files[name]) {
			c.repair(name)
		}
	}
}

// addResident folds a newly-placed replica into its site's storage
// element (no-op for sites without one), evicting under capacity pressure
// first so the incoming file has room.
func (c *Catalog) addResident(name string, sizeMB float64, site Site) {
	if len(c.storage) == 0 || site.IsZero() {
		return
	}
	se := c.storage[site]
	if se == nil {
		return
	}
	if _, ok := se.files[name]; ok {
		return
	}
	c.ensureRoom(se, sizeMB)
	se.files[name] = &seFile{sizeMB: sizeMB, lastAccess: c.clock()}
	se.gauge.Add(sizeMB)
}

// removeResident drops a replica from its site's storage element
// accounting (no-op for sites without one).
func (c *Catalog) removeResident(name string, site Site) {
	if len(c.storage) == 0 || site.IsZero() {
		return
	}
	se := c.storage[site]
	if se == nil {
		return
	}
	f, ok := se.files[name]
	if !ok {
		return
	}
	delete(se.files, name)
	delete(se.evictable, name)
	se.gauge.Remove(f.sizeMB)
}

// refile files every resident copy of the file into or out of its
// element's evictable index: a copy is evictable exactly when the file
// has more than floorOr1() replicas. It runs after every change to the
// file's replica count or residency, and for every file when the floor
// changes, which keeps each index equal to {resident ∧ over the floor}.
func (c *Catalog) refile(name string, e *catEntry) {
	if len(c.storage) == 0 {
		return
	}
	evictable := len(e.reps) > c.floorOr1()
	for _, r := range e.reps {
		se := c.storage[r.Site]
		if se == nil {
			continue
		}
		if f, ok := se.files[name]; ok && evictable {
			se.evictable[name] = f
		} else {
			delete(se.evictable, name)
		}
	}
}

// ensureRoom evicts resident replicas until an incoming file of the given
// size fits, draining in the element's policy order. The incoming file is
// not resident yet, and files at or below the replication floor are not
// in the evictable index, so neither is ever a victim; when nothing is
// evictable the element overflows (capacity is soft — the real SE would
// reject the write, but failing a stage-out over an accounting limit
// would deadlock repair, so overflow plus the gauge's peak record is the
// honest model).
func (c *Catalog) ensureRoom(se *seState, sizeMB float64) {
	if se.gauge.Unlimited() {
		return
	}
	for se.gauge.Over(sizeMB) {
		victim, ok := c.pickVictim(se)
		if !ok {
			return
		}
		c.evictReplica(se, victim)
	}
}

// pickVictim returns the policy-first resident of the element's evictable
// index (ok false when the index is empty). Floor-protected residents are
// never visited. The scan is in map order: EvictionPolicy totally orders
// distinct candidates, so the minimum — and with it the drain order the
// goldens pin — is the same whatever order the candidates arrive in.
func (c *Catalog) pickVictim(se *seState) (name string, ok bool) {
	var best SEFile
	//moteur:orderinvariant the policy totally orders distinct candidates (name last), so the minimum is scan-order free
	for n, f := range se.evictable {
		cand := SEFile{Name: n, SizeMB: f.sizeMB, LastAccess: f.lastAccess, Hits: f.hits}
		if !ok || se.policy.Before(cand, best) {
			best, ok = cand, true
		}
	}
	return best.Name, ok
}

// evictReplica drains one resident replica from the element: the replica
// set loses the copy, the gauge frees its bytes, and the eviction
// counters grow. Only evictable residents are victims, so the file keeps
// enough copies and eviction never fires the repair hook.
func (c *Catalog) evictReplica(se *seState, name string) {
	f := se.files[name]
	se.evictions++
	se.evictedMB += f.sizeMB
	delete(se.files, name)
	delete(se.evictable, name)
	se.gauge.Remove(f.sizeMB)
	c.dropReplica(name, se.site)
}

// touch records an actual stage-in access of the replica on its site's
// element (planning calls never touch — only fetches count).
func (c *Catalog) touch(name string, rep Replica) {
	if len(c.storage) == 0 || rep.Site.IsZero() {
		return
	}
	se := c.storage[rep.Site]
	if se == nil {
		return
	}
	if f, ok := se.files[name]; ok {
		f.lastAccess = c.clock()
		f.hits++
	}
}

// legDark reports whether any source site contributing to the stage leg
// is currently dark — the liveness check the stage-in walk applies at leg
// start and leg completion, so a source dying mid-fetch fails the leg.
func (c *Catalog) legDark(l RemoteLeg) bool {
	if !c.anyDark() {
		return false
	}
	for _, s := range l.Sites {
		if c.SiteDark(s) {
			return true
		}
	}
	return false
}

// LiveReplicas returns the file's currently reachable replicas (dark
// sites excluded) in deterministic site order — nil for an unregistered
// name. Repair loops use it to pick a copy source.
func (c *Catalog) LiveReplicas(name string) []Replica {
	e, ok := c.files[name]
	if !ok {
		return nil
	}
	out := make([]Replica, 0, len(e.reps))
	for _, r := range e.reps {
		if !c.SiteDark(r.Site) {
			out = append(out, r)
		}
	}
	return out
}

// SEUsedMB returns the resident bytes of the site's configured storage
// element, or zero when the site has no element (passive, unlimited
// storage). It is the cheap point query behind capacity-aware placement
// decisions — repair targeting reads it per candidate grid without
// materializing the full SEStats slice.
func (c *Catalog) SEUsedMB(site Site) float64 {
	se, ok := c.storage[site]
	if !ok {
		return 0
	}
	return se.gauge.Level()
}

// SEStats returns per-element statistics for every configured storage
// element, in deterministic site order.
func (c *Catalog) SEStats() []SEStat {
	out := make([]SEStat, 0, len(c.storage))
	//moteur:orderinvariant the stats are sorted by site right after
	for _, se := range c.storage {
		out = append(out, SEStat{
			Site:       se.site,
			CapacityMB: se.gauge.Capacity(),
			UsedMB:     se.gauge.Level(),
			PeakMB:     se.gauge.Peak(),
			Files:      len(se.files),
			Evictions:  se.evictions,
			EvictedMB:  se.evictedMB,
		})
	}
	slices.SortFunc(out, func(a, b SEStat) int { return a.Site.compare(b.Site) })
	return out
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//moteur:orderinvariant keys are sorted immediately after collection
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
