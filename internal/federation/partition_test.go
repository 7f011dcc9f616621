package federation

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// TestTenantRecordPartition checks each federation handle's own record
// partition against the filter of Federation.Records by tenant tag under
// a mid-run grid outage with re-brokering on: same attempts in the same
// dispatch order (re-brokered attempts included), the same statistics,
// and a returned slice that callers cannot append into.
func TestTenantRecordPartition(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids:    fourGridSpecs(),
		Policy:   RoundRobin(),
		Rebroker: 2,
		Outages:  []Outage{{Grid: "g1", At: 290 * time.Second, For: 600 * time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "", "c"}
	for i := 0; i < 80; i++ {
		name, spec := names[i%len(names)], grid.JobSpec{Name: fmt.Sprintf("job%03d", i), Runtime: time.Minute}
		eng.Schedule(sim.Time(i/4)*time.Minute, func() {
			f.Tenant(name).Submit(spec, func(*grid.JobRecord) {})
		})
	}
	eng.Run()

	rebrokered := 0
	for _, name := range names {
		var want []*grid.JobRecord
		for _, rec := range f.Records() {
			if rec.Tenant == name {
				want = append(want, rec)
			}
		}
		h := f.Tenant(name)
		got := h.Records()
		if len(got) != len(want) {
			t.Fatalf("tenant %q: %d records, filter has %d", name, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tenant %q: record %d is %s on %s, filter has %s on %s",
					name, i, got[i].Spec.Name, got[i].Grid, want[i].Spec.Name, want[i].Grid)
			}
			if seen[got[i].Spec.Name] {
				rebrokered++
			}
			seen[got[i].Spec.Name] = true
		}
		if o, w := h.Overheads(), grid.OverheadsOf(want); o != w {
			t.Fatalf("tenant %q: Overheads %v, filter %v", name, o, w)
		}
		if p, w := h.Phases(), grid.PhasesOf(want); p != w {
			t.Fatalf("tenant %q: Phases %v, filter %v", name, p, w)
		}
		sentinel := &grid.JobRecord{ID: -1}
		_ = append(h.Records(), sentinel)
		if len(h.records) != len(want) || len(h.Records()) != len(want) {
			t.Fatalf("tenant %q: appending to Records() grew the handle's partition", name)
		}
		if n := len(h.records); n < cap(h.records) && h.records[:n+1][n] == sentinel {
			t.Fatalf("tenant %q: appending to Records() wrote into the handle's storage", name)
		}
	}
	if rebrokered == 0 {
		t.Fatal("no tenant partition holds a re-brokered attempt: the outage missed every job")
	}
	for _, rec := range f.Records() {
		if rec.Status == grid.StatusFailed && !errors.Is(rec.Err, grid.ErrGridDown) {
			t.Fatalf("%s failed with %v, want only outage casualties", rec.Spec.Name, rec.Err)
		}
	}
}
