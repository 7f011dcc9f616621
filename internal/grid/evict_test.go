package grid

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// linearVictim is the reference eviction pick: the sorted scan of every
// resident that the per-element evictable index replaced. It skips the
// incoming file and every file at or below the floor, and keeps the
// policy minimum of the rest in lexical name order ("" when none).
func linearVictim(c *Catalog, se *seState, incoming string) string {
	floor := c.floorOr1()
	var best string
	var bestFile SEFile
	for _, name := range sortedKeys(se.files) {
		if name == incoming {
			continue
		}
		e := c.files[name]
		if e == nil || len(e.reps) <= floor {
			continue
		}
		f := se.files[name]
		cand := SEFile{Name: name, SizeMB: f.sizeMB, LastAccess: f.lastAccess, Hits: f.hits}
		if best == "" || se.policy.Before(cand, bestFile) {
			best, bestFile = name, cand
		}
	}
	return best
}

// linearDrain predicts the victims the reference would drain from se to
// admit name at sizeMB: the incoming file's own residents leave first (a
// re-registration), then reference picks run until the file fits. Each
// eviction changes only its victim's replica count, so the drain is a
// prefix of the eligible residents in policy order.
func linearDrain(c *Catalog, se *seState, name string, sizeMB float64, reregister bool) []string {
	level := se.gauge.Level()
	if f, ok := se.files[name]; ok {
		if !reregister {
			return nil // AddReplica at a site already holding the file
		}
		level -= f.sizeMB
	}
	if se.gauge.Unlimited() {
		return nil
	}
	floor := c.floorOr1()
	var eligible []SEFile
	for _, n := range sortedKeys(se.files) {
		if n == name || len(c.files[n].reps) <= floor {
			continue
		}
		f := se.files[n]
		eligible = append(eligible, SEFile{Name: n, SizeMB: f.sizeMB, LastAccess: f.lastAccess, Hits: f.hits})
	}
	sort.Slice(eligible, func(i, j int) bool { return se.policy.Before(eligible[i], eligible[j]) })
	var out []string
	for _, f := range eligible {
		if level+sizeMB <= se.gauge.Capacity() {
			break
		}
		out = append(out, f.Name)
		level -= f.SizeMB
	}
	sort.Strings(out)
	return out
}

// checkEvictable asserts the index invariant on every element — the
// evictable set is exactly {resident ∧ more than floorOr1() replicas},
// sharing the resident records — and that pickVictim agrees with the
// reference scan. It returns how many elements had a victim.
func checkEvictable(t *testing.T, c *Catalog, op int) (withVictim int) {
	t.Helper()
	floor := c.floorOr1()
	for _, key := range sortedKeys(c.storage) {
		se := c.storage[key]
		for _, name := range sortedKeys(se.files) {
			want := len(c.files[name].reps) > floor
			f, got := se.evictable[name]
			if got != want {
				t.Fatalf("op %d: %s resident %s (%d replicas, floor %d): indexed %v, want %v",
					op, se.site, name, len(c.files[name].reps), floor, got, want)
			}
			if got && f != se.files[name] {
				t.Fatalf("op %d: %s index holds a stale record for %s", op, se.site, name)
			}
		}
		for _, name := range sortedKeys(se.evictable) {
			if _, ok := se.files[name]; !ok {
				t.Fatalf("op %d: %s indexes %s, which is not resident", op, se.site, name)
			}
		}
		got, ok := c.pickVictim(se)
		want := linearVictim(c, se, "")
		if ok != (want != "") || got != want {
			t.Fatalf("op %d: %s pickVictim = (%q, %v), reference %q", op, se.site, got, ok, want)
		}
		if ok {
			withVictim++
		}
	}
	return withVictim
}

// TestEvictableIndexMatchesLinearScan drives random scripts over three
// capacity-limited storage elements and checks the evictable index
// against the sorted linear scan it replaced after every operation. The
// scripts register (and re-register live names), add replicas at sites
// with and without an element and at the unplaced site, touch copies
// through stage-in planning, adopt residents into a third element
// mid-script, change the replica floor, and reconfigure an element. Every
// admission under pressure must drain exactly the victims the reference
// predicts.
func TestEvictableIndexMatchesLinearScan(t *testing.T) {
	elements := []Site{{Grid: "g0", Cluster: "c0"}, {Grid: "g1", Cluster: "c0"}, {Grid: "g2", Cluster: "c0"}}
	sites := append([]Site{{Grid: "g0", Cluster: "c1"}, {Grid: "g3", Cluster: "c0"}}, elements...)
	const pool, ops = 40, 800
	names := make([]string, pool)
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
	}
	for _, policy := range []EvictionPolicy{EvictLRU(), EvictPopularity()} {
		for _, floor := range []int{0, 2, 3} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/floor%d/seed%d", policy.Name(), floor, seed), func(t *testing.T) {
					var now sim.Time
					var plan StagePlan
					c := newStorageCatalog(&now)
					c.SetLinks(&Links{IntraGrid: Link{MBps: 20, Latency: time.Second}, WAN: Link{MBps: 2, Latency: 5 * time.Second}})
					c.ConfigureSE(elements[0], 100, policy)
					c.ConfigureSE(elements[1], 100, policy)
					c.SetReplicaFloor(floor)
					r := rng.New(seed)
					var evictions, drains, picks, emptyPicks int
					for op := 0; op < ops; op++ {
						now += sim.Time(time.Duration(1+r.Intn(30)) * time.Second)
						switch {
						case op == ops/4:
							// Adoption: residents already pinned at the site
							// join the new element's index.
							c.ConfigureSE(elements[2], 120, policy)
						case op == ops/2:
							c.SetReplicaFloor((floor + 2) % 4) // 0→2, 2→0, 3→1
						case op == 3*ops/4:
							c.ConfigureSE(elements[0], 70, policy) // reconfigure: residency kept
						case r.Intn(10) < 4:
							name := names[r.Intn(pool)]
							add := c.Has(name) && r.Intn(2) == 0
							site := sites[r.Intn(len(sites))]
							if add && r.Intn(8) == 0 {
								site = Site{}
							}
							se := c.storage[site.key()]
							sizeMB := float64(5 + r.Intn(21))
							if add {
								sizeMB, _ = c.Lookup(name)
							}
							var before, want []string
							evBefore := 0
							if se != nil {
								before = sortedKeys(se.files)
								want = linearDrain(c, se, name, sizeMB, !add)
								evBefore = int(se.evictions)
							}
							if add {
								c.AddReplica(name, site)
							} else {
								c.RegisterAt(name, sizeMB, site)
							}
							if se != nil {
								after := map[string]bool{}
								for _, n := range sortedKeys(se.files) {
									after[n] = true
								}
								var got []string
								for _, n := range before {
									if n != name && !after[n] {
										got = append(got, n)
									}
								}
								if fmt.Sprint(got) != fmt.Sprint(want) || int(se.evictions)-evBefore != len(want) {
									t.Fatalf("op %d: admitting %s at %s drained %v (%d evictions), reference %v",
										op, name, site, got, int(se.evictions)-evBefore, want)
								}
								evictions += len(got)
								if len(got) > 0 {
									drains++
								}
							}
						case r.Intn(6) == 0:
							// An unknown name changes nothing.
							c.AddReplica(fmt.Sprintf("ghost%d", op), sites[r.Intn(len(sites))])
						default:
							var inputs []string
							for k := 1 + r.Intn(3); k > 0; k-- {
								if n := names[r.Intn(pool)]; c.Has(n) {
									inputs = append(inputs, n)
								}
							}
							c.stagePlanInto(&plan, inputs, sites[r.Intn(len(sites))])
						}
						n := checkEvictable(t, c, op)
						picks += n
						emptyPicks += len(c.storage) - n
					}
					if evictions == 0 || drains == 0 || picks == 0 || emptyPicks == 0 {
						t.Fatalf("script exercised %d evictions in %d drains, %d victim and %d empty picks: want all positive",
							evictions, drains, picks, emptyPicks)
					}
				})
			}
		}
	}
}

// BenchmarkSEEviction admits files into one full storage element of n
// 1 MB residents, of which ~1% carry a second replica elsewhere and are
// therefore evictable; the rest are single copies the last-copy floor
// protects. Each registration evicts the least-recently-used evictable
// resident, then gains its own second replica, so the evictable share
// stays constant. The victim scan visits the evictable residents only,
// so the cost per registration follows their count (n/100), not n.
func BenchmarkSEEviction(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("residents=%d", n), func(b *testing.B) {
			var now sim.Time
			c := newStorageCatalog(&now)
			c.ConfigureSE(sA, float64(n), EvictLRU())
			k := max(n/100, 1)
			for i := 0; i < n-k; i++ {
				c.RegisterAt(fmt.Sprintf("p%05d", i), 1, sA)
			}
			// The evictable pool: k+1 names with an sB copy, of which the
			// first was evicted at sA to admit the last. Registration i
			// re-admits pool name i mod k+1, the one evicted most recently,
			// and evicts the next, which LRU makes the oldest.
			ring := make([]string, k+1)
			for i := range ring {
				ring[i] = fmt.Sprintf("e%05d", i)
				now++
				c.RegisterAt(ring[i], 1, sA)
				c.AddReplica(ring[i], sB)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				name := ring[i%(k+1)]
				c.RegisterAt(name, 1, sA)
				c.AddReplica(name, sB)
			}
			b.StopTimer()
			if st := c.SEStats()[0]; st.Files != n || st.UsedMB != float64(n) {
				b.Fatalf("element holds %d files / %v MB, want %d / %d", st.Files, st.UsedMB, n, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/registration")
		})
	}
}
