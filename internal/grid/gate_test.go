package grid

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// linearGate is the reference fair-share gate: the linear ring scan over
// a name-keyed queue map that the active-slot bitset replaced. It models
// only the gate — which submission the UI serves next — so the real grid
// and the reference can be driven through the same submit/settle script
// and compared pick for pick.
type linearGate struct {
	fifo    bool
	weights map[string]int
	queues  map[string][]int // pending job IDs per tenant
	ring    []string         // tenants in first-submission order
	rr      int
	served  int
	busy    bool
	order   []int // job IDs in the order the UI served them
	wraps   int   // times the round-robin pointer went back to a lower slot
}

func (m *linearGate) submit(tenant string, id int) (joined bool) {
	q, ok := m.queues[tenant]
	if !ok {
		m.ring = append(m.ring, tenant)
		joined = true
	}
	m.queues[tenant] = append(q, id)
	m.pump()
	return joined
}

func (m *linearGate) settle() {
	m.busy = false
	m.pump()
}

func (m *linearGate) pump() {
	if m.busy {
		return
	}
	pick := -1
	if m.fifo {
		best := -1
		for i, tn := range m.ring {
			if q := m.queues[tn]; len(q) > 0 && (best < 0 || q[0] < best) {
				best, pick = q[0], i
			}
		}
	} else {
		n := len(m.ring)
		for i := 0; i < n; i++ {
			idx := (m.rr + i) % n
			if len(m.queues[m.ring[idx]]) > 0 {
				pick = idx
				break
			}
		}
	}
	if pick < 0 {
		return
	}
	tn := m.ring[pick]
	m.order = append(m.order, m.queues[tn][0])
	m.queues[tn] = m.queues[tn][1:]
	if !m.fifo {
		if pick != m.rr {
			m.rr, m.served = pick, 0
		}
		m.served++
		w := m.weights[tn]
		if w < 1 {
			w = 1
		}
		if m.served >= w {
			next := (pick + 1) % len(m.ring)
			if next < m.rr {
				m.wraps++
			}
			m.rr, m.served = next, 0
		}
	}
	m.busy = true
}

// TestFairShareGateMatchesLinearScan drives random submit/settle scripts
// through a real grid and through the reference linear scan and requires
// the same drain order, job for job. The ring grows to more than 128
// tenants (three bitset words), tenants keep joining after the pointer
// has wrapped, some tenants carry weights above 1, and the strict-FIFO
// gate is checked the same way.
func TestFairShareGateMatchesLinearScan(t *testing.T) {
	const tenants = 150
	weights := map[string]int{}
	for i := 0; i < tenants; i += 7 {
		weights[fmt.Sprintf("t%03d", i)] = 2 + i%3
	}
	cases := []struct {
		name    string
		fifo    bool
		weights map[string]int
	}{
		{"round-robin", false, nil},
		{"weighted", false, weights},
		{"strict-fifo", true, nil},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				cfg := quiet(16) // 2s deterministic UI latency: acceptances are strictly ordered
				cfg.StrictFIFOSubmit = c.fifo
				cfg.TenantWeights = c.weights
				eng := sim.NewEngine()
				g := New(eng, cfg)
				ref := &linearGate{fifo: c.fifo, weights: c.weights, queues: map[string][]int{}}
				r := rng.New(seed)
				joined, lateJoins := 0, 0
				submit := func(name string) {
					rec := g.Tenant(name).Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
					if ref.submit(name, rec.ID) && ref.wraps > 0 {
						lateJoins++
					}
				}
				for op := 0; op < 4000; op++ {
					switch {
					case joined < tenants && r.Intn(12) == 0:
						submit(fmt.Sprintf("t%03d", joined))
						joined++
					case joined > 0 && r.Intn(2) == 0:
						name := fmt.Sprintf("t%03d", r.Intn(joined))
						for k := 1 + r.Intn(3); k > 0; k-- {
							submit(name)
						}
					case g.PendingSubmits() > 0:
						// Settle the submission in service: step until the
						// UI latency is paid.
						for before := g.PendingSubmits(); g.PendingSubmits() == before; {
							if !eng.Step() {
								t.Fatal("engine drained with submissions pending")
							}
						}
						ref.settle()
					}
					if !c.fifo && (g.subRR != ref.rr || g.subServed != ref.served) {
						t.Fatalf("op %d: gate pointer (%d, %d), reference (%d, %d)",
							op, g.subRR, g.subServed, ref.rr, ref.served)
					}
				}
				eng.Run()
				for len(ref.order) < len(g.Records()) {
					ref.settle()
				}
				if joined != tenants || len(g.subRing) != tenants || len(g.subActive) != 3 {
					t.Fatalf("ring has %d tenants over %d words, want %d over 3", len(g.subRing), len(g.subActive), tenants)
				}
				if !c.fifo && lateJoins == 0 {
					t.Fatal("no tenant joined after the pointer wrapped: the script misses that case")
				}
				recs := append([]*JobRecord(nil), g.Records()...)
				sort.SliceStable(recs, func(i, j int) bool { return recs[i].Accepted < recs[j].Accepted })
				for i, rec := range recs {
					if rec.Status != StatusCompleted {
						t.Fatalf("job %d ended %v", rec.ID, rec.Status)
					}
					if rec.ID != ref.order[i] {
						t.Fatalf("UI served job %d (%s) at position %d, reference served job %d",
							rec.ID, rec.Tenant, i, ref.order[i])
					}
				}
			})
		}
	}
}

// TestTenantRecordPartition checks each grid handle's own record
// partition against the filter of the global record list by tenant tag:
// same records in the same order, the same statistics, and a returned
// slice that callers cannot append into.
func TestTenantRecordPartition(t *testing.T) {
	cfg := quiet(4)
	cfg.Failures = FailureConfig{Probability: 0.3, DetectDelay: time.Minute, MaxRetries: 2}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	names := []string{"a", "b", "", "c"}
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		name := names[r.Intn(len(names))]
		at := time.Duration(r.Intn(3600)) * time.Second
		eng.Schedule(at, func() {
			g.Tenant(name).Submit(JobSpec{Runtime: time.Minute}, func(*JobRecord) {})
		})
	}
	eng.Run()
	failed := 0
	for _, rec := range g.Records() {
		if rec.Status == StatusFailed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no failed jobs: the partition is not exercised across terminal states")
	}
	for _, name := range names {
		var want []*JobRecord
		for _, rec := range g.Records() {
			if rec.Tenant == name {
				want = append(want, rec)
			}
		}
		h := g.Tenant(name)
		got := h.Records()
		if len(got) != len(want) {
			t.Fatalf("tenant %q: %d records, filter has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tenant %q: record %d is job %d, filter has job %d", name, i, got[i].ID, want[i].ID)
			}
		}
		if o, w := h.Overheads(), OverheadsOf(want); o != w {
			t.Fatalf("tenant %q: Overheads %v, filter %v", name, o, w)
		}
		if p, w := h.Phases(), PhasesOf(want); p != w {
			t.Fatalf("tenant %q: Phases %v, filter %v", name, p, w)
		}
		sentinel := &JobRecord{ID: -1}
		_ = append(h.Records(), sentinel)
		if len(h.records) != len(want) || len(h.Records()) != len(want) {
			t.Fatalf("tenant %q: appending to Records() grew the handle's partition", name)
		}
		if n := len(h.records); n < cap(h.records) && h.records[:n+1][n] == sentinel {
			t.Fatalf("tenant %q: appending to Records() wrote into the handle's storage", name)
		}
	}
}

// BenchmarkFairShareGate drains submission waves through one grid's UI
// gate with a ring of n tenants, of which only a rotating eight submit in
// each wave: most slots stay idle, as on a many-tenant campaign where
// arrivals are staggered. The grid itself is ideal (no middleware
// latency, one-second jobs), so the gate's pick is a visible share of
// each submission's cost. The grid is rebuilt off the clock every 1024
// waves to keep its record list small.
func BenchmarkFairShareGate(b *testing.B) {
	const active, perTenant = 8, 2
	for _, n := range []int{8, 2000} {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			var (
				eng     *sim.Engine
				tenants []*Tenant
			)
			spec := JobSpec{Runtime: time.Second}
			done := func(*JobRecord) {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					b.StopTimer()
					eng = sim.NewEngine()
					g := New(eng, IdealConfig(64))
					tenants = tenants[:0]
					for k := 0; k < n; k++ {
						t := g.Tenant(fmt.Sprintf("t%04d", k))
						t.Submit(spec, done) // join the ring
						tenants = append(tenants, t)
					}
					eng.Run()
					b.StartTimer()
				}
				for k := 0; k < active; k++ {
					t := tenants[(i*active+k)%n]
					for j := 0; j < perTenant; j++ {
						t.Submit(spec, done)
					}
				}
				eng.Run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*active*perTenant), "ns/submit")
		})
	}
}
