package grid

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// storageSites are the two locations of the storage test rig: sA holds
// the capacity-limited element under test, sB the safety copies that make
// sA's residents evictable (eviction never drops a file's last copy).
var (
	sA = Site{Grid: "g1", Cluster: "cA"}
	sB = Site{Grid: "g2", Cluster: "cB"}
)

// newStorageCatalog returns a catalog with a manual clock: tests advance
// *now to order accesses without running an engine.
func newStorageCatalog(now *sim.Time) *Catalog {
	c := NewCatalog()
	c.now = func() sim.Time { return *now }
	return c
}

// seed registers n 10 MB files (twoCopies adds the sB safety replica) and
// returns their names.
func seed(c *Catalog, prefix string, n int, twoCopies bool) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + string(rune('0'+i))
		c.RegisterAt(names[i], 10, sA)
		if twoCopies {
			c.AddReplica(names[i], sB)
		}
	}
	return names
}

// hasReplicaAt reports whether the file currently has a copy at the site.
func hasReplicaAt(c *Catalog, name string, site Site) bool {
	for _, r := range c.Replicas(name) {
		if r.Site == site {
			return true
		}
	}
	return false
}

// TestEvictionPolicyProperty drives both eviction policies through the
// same heavy-tailed access trace — one hot file staged ten times, then a
// long scan of cold single-access files — and pins their divergence: LRU
// evicts the hot file once the scan ages it out, popularity keeps the hot
// head resident and drains the cold tail instead. Shared properties hold
// for both: evictions only ever remove copies of files that keep another
// replica, accounting matches, and the element ends exactly full.
func TestEvictionPolicyProperty(t *testing.T) {
	const fileMB, capMB = 10.0, 40.0
	for _, tc := range []struct {
		policy       EvictionPolicy
		wantHotEvict bool
	}{
		{EvictLRU(), true},
		{EvictPopularity(), false},
	} {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			var now sim.Time
			var plan StagePlan
			c := newStorageCatalog(&now)
			c.RegisterAt("hot", fileMB, sA)
			c.AddReplica("hot", sB)
			c.ConfigureSE(sA, capMB, tc.policy)

			// The hot head: ten fetches at distinct instants.
			for i := 0; i < 10; i++ {
				now += sim.Time(time.Second)
				c.stagePlanInto(&plan, []string{"hot"}, sA)
			}
			// The cold tail: each file registered, safety-copied, and
			// fetched once, at ever-later instants. Registration at sA
			// admits the file into the element, evicting under pressure.
			tail := make([]string, 8)
			for i := range tail {
				tail[i] = "tail" + string(rune('a'+i))
				now += sim.Time(time.Second)
				c.RegisterAt(tail[i], fileMB, sA)
				c.AddReplica(tail[i], sB)
				c.stagePlanInto(&plan, []string{tail[i]}, sA)
			}

			if got := hasReplicaAt(c, "hot", sA); got == tc.wantHotEvict {
				t.Errorf("%s: hot file resident at sA = %v, want %v",
					tc.policy.Name(), got, !tc.wantHotEvict)
			}
			// No eviction may orphan a file: every copy dropped from sA
			// must leave the sB replica, and nothing is unregistered.
			for _, name := range append([]string{"hot"}, tail...) {
				if !c.Has(name) {
					t.Fatalf("%s: file %s vanished from the catalog", tc.policy.Name(), name)
				}
				if len(c.Replicas(name)) == 0 {
					t.Errorf("%s: file %s lost its last replica to eviction", tc.policy.Name(), name)
				}
			}
			st := c.SEStats()
			if len(st) != 1 || st[0].Site != sA {
				t.Fatalf("%s: SEStats = %+v, want exactly the sA element", tc.policy.Name(), st)
			}
			// 1 hot + 8 tail files into a 4-slot element: 5 evictions,
			// ending exactly full with the peak never past one incoming
			// file over capacity.
			if st[0].Files != 4 || st[0].UsedMB != capMB {
				t.Errorf("%s: element holds %d files / %v MB, want 4 / %v",
					tc.policy.Name(), st[0].Files, st[0].UsedMB, capMB)
			}
			if st[0].Evictions != 5 || st[0].EvictedMB != 5*fileMB {
				t.Errorf("%s: evictions = %d (%v MB), want 5 (%v)",
					tc.policy.Name(), st[0].Evictions, st[0].EvictedMB, 5*fileMB)
			}
			if st[0].PeakMB > capMB {
				t.Errorf("%s: peak %v exceeded capacity %v — eviction ran after admission",
					tc.policy.Name(), st[0].PeakMB, capMB)
			}
		})
	}
}

// TestEvictionRespectsReplicaFloor pins the floor guard: a file at or
// below the replication floor is never an eviction victim, even under
// capacity pressure — the element overflows instead (soft capacity), and
// the overflow shows in the gauge's level and peak.
func TestEvictionRespectsReplicaFloor(t *testing.T) {
	var now sim.Time
	c := newStorageCatalog(&now)
	c.SetReplicaFloor(2)
	// Two files with exactly two copies each (at the floor: protected)
	// and one with three (above the floor: the only legal victim).
	seed(c, "pinned", 2, true)
	c.RegisterAt("spare", 10, sA)
	c.AddReplica("spare", sB)
	c.AddReplica("spare", Site{Grid: "g3"})
	c.ConfigureSE(sA, 30, EvictLRU())

	now += sim.Time(time.Minute)
	c.RegisterAt("incoming", 10, sA)
	c.AddReplica("incoming", sB)

	if hasReplicaAt(c, "spare", sA) {
		t.Error("the above-floor file survived while the element was over capacity")
	}
	for _, name := range []string{"pinned0", "pinned1"} {
		if !hasReplicaAt(c, name, sA) {
			t.Errorf("at-floor file %s was evicted", name)
		}
	}

	// Fill past capacity with only protected files left: the element
	// must overflow rather than drop anyone below the floor.
	now += sim.Time(time.Minute)
	c.RegisterAt("overflow", 10, sA)
	c.AddReplica("overflow", sB)
	st := c.SEStats()[0]
	if st.UsedMB != 40 || st.PeakMB != 40 {
		t.Errorf("element level/peak = %v/%v MB, want 40/40 (soft-capacity overflow)", st.UsedMB, st.PeakMB)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want exactly the one above-floor victim", st.Evictions)
	}
	for _, name := range []string{"pinned0", "pinned1", "incoming", "overflow"} {
		if !hasReplicaAt(c, name, sA) {
			t.Errorf("protected file %s missing from the overflowing element", name)
		}
	}
}

// TestPlanSkipsDarkReplicas pins dark-replica avoidance: planning picks
// the cheapest live replica, degrades to remote copies when the local
// grid goes dark, reports Unavailable when every copy is dark, and
// recovers exactly when the grids do.
func TestPlanSkipsDarkReplicas(t *testing.T) {
	c := NewCatalog()
	c.SetLinks(&Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}})
	c.RegisterAt("f", 100, sA)
	c.AddReplica("f", sB)

	if p := c.Plan([]string{"f"}, sA); p.LocalMB != 100 || p.RemoteMB != 0 {
		t.Fatalf("clean plan = %+v, want the local sA replica", p)
	}

	c.setGridDark("g1", true)
	p := c.Plan([]string{"f"}, sA)
	if p.Unavailable != "" || p.RemoteMB != 100 || p.LocalMB != 0 {
		t.Fatalf("plan with sA dark = %+v, want the remote sB replica", p)
	}
	// The surviving copy is the last live one across a non-local link:
	// the fragile class the safety-aware broker penalizes.
	if p.FragileMB != 100 || p.FragileTime != p.RemoteTime {
		t.Errorf("fragile accounting = %v MB / %v, want 100 / %v", p.FragileMB, p.FragileTime, p.RemoteTime)
	}
	if live := c.LiveReplicas("f"); len(live) != 1 || live[0].Site != sB {
		t.Errorf("LiveReplicas = %+v, want the sB copy only", live)
	}

	c.setGridDark("g2", true)
	if p := c.Plan([]string{"f"}, sA); p.Unavailable != "f" {
		t.Errorf("plan with every copy dark: Unavailable=%q, want f", p.Unavailable)
	}

	c.setGridDark("g1", false)
	c.setGridDark("g2", false)
	if p := c.Plan([]string{"f"}, sA); p.Unavailable != "" || p.LocalMB != 100 {
		t.Errorf("plan after recovery = %+v, want the local replica back", p)
	}
	if c.anyDark() {
		t.Error("catalog still reports darkness after both grids recovered")
	}
}

// TestGridDarknessDarkensReplicas pins the satellite fix: a grid going
// dark (compute outage or storage outage alike) darkens every replica on
// it, including cluster sites never explicitly configured with an SE.
func TestGridDarknessDarkensReplicas(t *testing.T) {
	c := NewCatalog()
	c.setGridDark("g1", true)
	if !c.SiteDark(sA) || !c.SiteDark(Site{Grid: "g1"}) {
		t.Error("sites of a dark grid report as live")
	}
	if c.SiteDark(sB) || c.SiteDark(Site{}) {
		t.Error("sites outside the dark grid (or unplaced) report as dark")
	}
	c.setGridDark("g1", false)
	if c.SiteDark(sA) || c.anyDark() {
		t.Error("grid recovery did not clear the darkness")
	}
}

// TestUnplacedReplicaNeverDark pins the compatibility contract: unplaced
// replicas (the location-free Register path) are local everywhere and
// survive any outage, so location-blind code never sees Unavailable.
func TestUnplacedReplicaNeverDark(t *testing.T) {
	c := NewCatalog()
	c.Register("f", 10)
	c.setGridDark("g1", true)
	c.setGridDark("g2", true)
	if p := c.Plan([]string{"f"}, sA); p.Missing != "" || p.Unavailable != "" || p.LocalMB != 10 {
		t.Errorf("unplaced replica planned %+v under total darkness, want plain local", p)
	}
}
