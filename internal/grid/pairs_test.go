package grid

import (
	"testing"
	"testing/quick"
	"time"
)

// matrixGrids and matrixClusters are the site universe of the
// generalization property: every ordered cross-grid pair of matrixGrids
// can be enumerated, and the empty entries exercise the grid-level-view
// and unplaced cases.
var (
	matrixGrids    = []string{"", "g0", "g1", "g2", "g3"}
	matrixClusters = []string{"", "ce00", "ce01"}
)

// site decodes two generator bytes into a site of the universe.
func site(g, c byte) Site {
	return Site{
		Grid:    matrixGrids[int(g)%len(matrixGrids)],
		Cluster: matrixClusters[int(c)%len(matrixClusters)],
	}
}

// withAllPairs returns a copy of the class model that also lists every
// ordered cross-grid pair of the universe at the given link.
func withAllPairs(classes *Links, l Link) *Links {
	m := &Links{IntraGrid: classes.IntraGrid, WAN: classes.WAN, Pairs: make(map[GridPair]Link)}
	for _, from := range matrixGrids {
		for _, to := range matrixGrids {
			if from != to {
				m.Pairs[GridPair{From: from, To: to}] = l
			}
		}
	}
	return m
}

// TestLinkMatrixGeneralizesLinks is the strict-generalization property:
// pairs listing every cross-grid pair at the class model's WAN constants
// must price every (from, to) site pair bit-identically to the same
// classes with no pairs — Local flag, bandwidth and latency alike. It is
// what licenses swapping class links for a measured per-pair matrix
// without re-validating the transfer model. LocalLinks rides along as a
// row: it prices exactly like the zero classes.
func TestLinkMatrixGeneralizesLinks(t *testing.T) {
	classes := []*Links{
		DefaultWAN(),
		{IntraGrid: Link{MBps: 5, Latency: time.Second}, WAN: Link{MBps: 1, Latency: 10 * time.Second}},
		{}, // the location-blind zero model: a zero WAN entry must degrade to local
	}
	for _, links := range classes {
		matrix := withAllPairs(links, links.WAN)
		f := func(fg, fc, tg, tc byte) bool {
			from, to := site(fg, fc), site(tg, tc)
			return matrix.Link(from, to) == links.Link(from, to)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("pairs diverge from class model %+v: %v", links, err)
		}
	}
	local := LocalLinks()
	f := func(fg, fc, tg, tc byte) bool {
		from, to := site(fg, fc), site(tg, tc)
		return local.Link(from, to) == (&Links{}).Link(from, to)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("LocalLinks diverges from the zero classes: %v", err)
	}
}

// TestLinkMatrixOverridesAndFallback pins the pair semantics directly: a
// listed pair is priced as listed (asymmetrically if so configured), an
// unlisted pair falls back to its class, zero classes mean local, and the
// always-local cases (unplaced, same cluster, grid-level view of resident
// data) never consult the pairs.
func TestLinkMatrixOverridesAndFallback(t *testing.T) {
	fast := Link{MBps: 100, Latency: time.Second}
	slow := Link{MBps: 1, Latency: 30 * time.Second}
	m := DefaultWAN()
	m.Pairs = map[GridPair]Link{
		{From: "g1", To: "g0"}: fast,
		{From: "g0", To: "g1"}: slow,
	}
	a, b := Site{Grid: "g0", Cluster: "ce00"}, Site{Grid: "g1", Cluster: "ce00"}
	far := Site{Grid: "g9", Cluster: "ce00"}

	if got := m.Link(b, a); got != fast {
		t.Errorf("listed pair g1>g0 = %+v, want the fast link", got)
	}
	if got := m.Link(a, b); got != slow {
		t.Errorf("listed pair g0>g1 = %+v, want the slow link (asymmetric)", got)
	}
	if got, want := m.Link(far, a), DefaultWAN().Link(far, a); got != want {
		t.Errorf("unlisted pair = %+v, want the WAN class %+v", got, want)
	}
	if got := m.Link(Site{}, a); !got.Local {
		t.Errorf("unplaced replica = %+v, want local", got)
	}
	if got := m.Link(a, a); !got.Local {
		t.Errorf("same site = %+v, want local", got)
	}
	if got := m.Link(a, Site{Grid: "g0"}); !got.Local {
		t.Errorf("grid-level view of resident data = %+v, want local", got)
	}

	bare := &Links{Pairs: map[GridPair]Link{{From: "g1", To: "g0"}: fast}}
	if got := bare.Link(far, a); !got.Local {
		t.Errorf("zero-class unlisted pair = %+v, want local", got)
	}
	if got := bare.Link(b, a); got != fast {
		t.Errorf("zero-class listed pair = %+v, want the fast link", got)
	}
}

// TestLinkMatrixIntraGridPair pins that a (g, g) entry prices cross-
// cluster movement inside one grid, while same-cluster and grid-level
// consumers stay local — pairs can refine the intra-grid class too.
func TestLinkMatrixIntraGridPair(t *testing.T) {
	intra := Link{MBps: 50, Latency: 100 * time.Millisecond}
	m := &Links{Pairs: map[GridPair]Link{{From: "g0", To: "g0"}: intra}}
	a := Site{Grid: "g0", Cluster: "ce00"}
	b := Site{Grid: "g0", Cluster: "ce01"}
	if got := m.Link(a, b); got != intra {
		t.Errorf("cross-cluster intra-grid = %+v, want the listed intra link", got)
	}
	if got := m.Link(a, a); !got.Local {
		t.Errorf("same cluster = %+v, want local", got)
	}
	if got := m.Link(a, Site{Grid: "g0"}); !got.Local {
		t.Errorf("grid-level consumer = %+v, want local", got)
	}
}

// TestAllLocalOnlyForLocalLinks pins the planning licence: only the model
// LocalLinks returns lets the catalog skip stage planning. The zero
// classes price identically, but they still plan, because planning feeds
// the broker's local-bytes affinity.
func TestAllLocalOnlyForLocalLinks(t *testing.T) {
	c := NewCatalog()
	if !c.AllLocal() {
		t.Fatal("a fresh catalog must start all-local")
	}
	for _, lm := range []LinkModel{&Links{}, DefaultWAN(), &Links{Pairs: map[GridPair]Link{}}} {
		c.SetLinks(lm)
		if c.AllLocal() {
			t.Errorf("AllLocal under %+v, want false", lm)
		}
	}
	c.SetLinks(LocalLinks())
	if !c.AllLocal() {
		t.Error("AllLocal false under LocalLinks")
	}
	c.SetLinks(nil)
	if !c.AllLocal() {
		t.Error("SetLinks(nil) must reset to LocalLinks")
	}
}
