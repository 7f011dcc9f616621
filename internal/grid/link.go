package grid

import (
	"cmp"
	"strings"
	"time"
)

// Site identifies a storage location: a computing element's close storage
// element within a named grid. The zero Site is the "unplaced" location of
// a file registered through the location-free compatibility path
// (Catalog.Register): every link model must treat an unplaced replica as
// local to any consumer, which is what keeps single-grid code that never
// names locations behaving exactly as before the catalog learned about
// them.
type Site struct {
	// Grid names the infrastructure the replica lives on (Config.Name;
	// empty for a standalone grid built without a name).
	Grid string
	// Cluster names the computing element whose close SE holds the
	// replica (empty when only the grid is known, e.g. a broker's view of
	// a member grid as a whole).
	Cluster string
}

// IsZero reports whether the site is the unplaced location.
func (s Site) IsZero() bool { return s == Site{} }

// compare orders sites by grid, then cluster: the deterministic order of
// replica sets and storage-element listings.
func (s Site) compare(o Site) int {
	return cmp.Or(strings.Compare(s.Grid, o.Grid), strings.Compare(s.Cluster, o.Cluster))
}

// String renders the site as "grid/cluster" ("(unplaced)" for the zero
// site).
func (s Site) String() string {
	if s.IsZero() {
		return "(unplaced)"
	}
	return s.Grid + "/" + s.Cluster
}

// Link describes one edge of the transfer topology: the cost of moving a
// file from a replica's site to a consuming worker node.
type Link struct {
	// Local marks the replica as reachable through the consuming
	// cluster's close-SE link: the transfer is paid on that link's shared
	// streams at the cluster's own bandwidth, exactly as the pre-locality
	// transfer model did for every file. MBps and Latency are ignored.
	Local bool
	// MBps is the link bandwidth for a non-local fetch. Zero means the
	// fetch costs only its latency.
	MBps float64
	// Latency is the fixed per-file setup cost of a non-local fetch.
	Latency time.Duration
}

// maxCost bounds one fetch estimate at 2^53 ns (about 104 days): far past
// any simulated span, yet small enough that a stage plan summing up to a
// thousand capped estimates, and the engine clock adding one to the
// current instant, stay inside time.Duration's range.
const maxCost = time.Duration(1) << 53

// Cost returns the estimated wall time of fetching sizeMB over the link
// (zero for a local link — the close-SE cost is uniform across replicas
// and is paid separately by the cluster's transfer phase). The estimate
// is clamped to [0, maxCost], so a vanishing bandwidth prices a fetch as
// prohibitively slow instead of overflowing into a negative duration.
func (l Link) Cost(sizeMB float64) time.Duration {
	if l.Local {
		return 0
	}
	d := min(max(l.Latency, 0), maxCost)
	if l.MBps > 0 {
		xfer := sizeMB / l.MBps * float64(time.Second)
		if !(xfer < float64(maxCost)) {
			return maxCost
		}
		d += time.Duration(xfer)
	}
	return min(max(d, 0), maxCost)
}

// LinkModel gives the link between a replica's site and a consuming site.
// Implementations must be pure functions of their configuration and the
// two sites: stage-in planning and broker ranking call Link at arbitrary
// points of the event schedule, so any hidden state would break the
// simulator's determinism. An unplaced replica (from.IsZero()) must map to
// a local link. Links is the model every world is built on; the interface
// lets instrumentation wrap it.
type LinkModel interface {
	// Link returns the edge from the replica's site to the consumer.
	Link(from, to Site) Link
}

// GridPair is one ordered (from, to) edge of the grid-level transfer
// topology: the direction a replica moves when a job on grid To consumes
// a file resident on grid From. Per-pair links and the contended WAN
// fabric key their state by it.
type GridPair struct {
	// From names the grid the replica lives on.
	From string
	// To names the grid consuming the replica.
	To string
}

// Links is the link model of an LCG2-style federation: intra-cluster (the
// replica sits behind the consuming CE's close SE — free beyond the
// close-SE transfer every job pays), intra-grid (another CE of the same
// grid) and WAN (another grid of the federation) class links, with
// intra-cluster ≪ intra-grid ≪ WAN, plus optional measured per-pair
// links — the per-pair link quality of Venugopal et al.'s data broker and
// the distance matrices of Sadeghiram et al. A listed (fromGrid, toGrid)
// pair is priced exactly as listed and every other pair falls back to its
// class, so pairs listing the class constants price exactly like no
// pairs at all. A zero-valued link, class or pair, is treated as local,
// so the zero Links value reproduces the location-blind transfer model.
type Links struct {
	// IntraGrid is the edge between two clusters of the same grid. The
	// zero value treats intra-grid transfers as local (the default: the
	// paper's close-SE abstraction already folds intra-grid movement into
	// the cluster link).
	IntraGrid Link
	// WAN is the edge between two member grids of a federation. The zero
	// value treats cross-grid transfers as local (the shared-catalog
	// behaviour, where federated staging was free).
	WAN Link
	// Pairs maps ordered grid pairs to their measured link, overriding
	// the class link. A (g, g) entry prices cross-cluster transfers
	// within grid g. Nil lists no pairs, and skips the lookup.
	Pairs map[GridPair]Link

	// blind marks the model LocalLinks returns, which Catalog.AllLocal
	// recognizes as its licence to skip stage planning.
	blind bool
}

// Link implements LinkModel: same cluster (or an unplaced replica) is
// local, and so is a grid-level consumer view of data resident on its own
// grid; a listed (fromGrid, toGrid) pair is priced by Pairs; anything
// else is IntraGrid within a grid and WAN across grids.
func (l *Links) Link(from, to Site) Link {
	if from.IsZero() || from == to {
		return Link{Local: true}
	}
	if from.Grid == to.Grid && (from.Cluster == "" || to.Cluster == "") {
		// Same grid, but one side only knows the grid (a broker's view):
		// resident on the grid means no movement.
		return Link{Local: true}
	}
	if len(l.Pairs) > 0 {
		if p, ok := l.Pairs[GridPair{From: from.Grid, To: to.Grid}]; ok {
			return orLocal(p)
		}
	}
	if from.Grid == to.Grid {
		return orLocal(l.IntraGrid)
	}
	return orLocal(l.WAN)
}

// orLocal degrades a zero-valued link to local.
func orLocal(l Link) Link {
	if !l.Local && l.MBps == 0 && l.Latency == 0 {
		return Link{Local: true}
	}
	return l
}

// DefaultWAN returns the standard federation link model: intra-grid
// transfers stay local (close-SE abstraction) and cross-grid fetches pay a
// 2 MB/s WAN link with a 5 s per-file setup latency — 5× slower than the
// default clusters' 10 MB/s close-SE links, so the broker has a real
// data-movement cost to trade against middleware quality.
func DefaultWAN() *Links {
	return &Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}}
}

// LocalLinks returns the link model that treats every replica as local:
// the location-blind transfer model the catalog had before it learned
// about sites (and the free cross-grid staging of the first federation).
// It is the compatibility escape hatch and the control arm of locality
// experiments. It prices exactly like the zero Links, but only it lets
// Catalog.AllLocal skip planning, so callers must not add links to it.
func LocalLinks() *Links { return &Links{blind: true} }
