package campaign

import (
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/sim"
)

// TestCampaignSurvivesSEOutage is the storage-robustness scenario at the
// campaign layer: the 4-grid skewed federated campaign with one member's
// storage elements dark for a mid-campaign window — its compute stays up
// — must still complete every tenant, because the k=2 replication floor
// copied every single-replica input (and every produced intermediate)
// onto a second grid before the window opened, and bounded re-staging
// plus re-brokering route around the dark element. The disturbed span
// must stay within a small multiple of the clean one.
func TestCampaignSurvivesSEOutage(t *testing.T) {
	run := func(outages []federation.Outage) (*Report, *federation.Federation) {
		eng := sim.NewEngine()
		f, err := federation.New(eng, federation.Config{
			Grids:       localitySpecs(),
			Policy:      federation.RankedSafe(),
			Links:       slowWAN(),
			Rebroker:    2,
			MinReplicas: 2,
			Outages:     outages,
		})
		if err != nil {
			t.Fatal(err)
		}
		x, err := StartSite(eng, OnFederation(f), localityTenants(12, 1), Admission{})
		if err != nil {
			t.Fatal(err)
		}
		rep := x.Run()
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s did not survive the SE outage: %v", tr.Name, tr.Err)
			}
		}
		return rep, f
	}
	clean, _ := run(nil)
	dark, f := run([]federation.Outage{
		{Grid: "g1", At: 2 * time.Minute, For: 3 * time.Minute, Storage: true},
	})
	if f.Repairs() == 0 {
		t.Error("the k=2 floor commissioned no repair copies")
	}
	if f.Grid(1).Down() {
		t.Error("a storage-only outage took g1's compute dimension down")
	}
	if dark.Makespan > 2*clean.Makespan {
		t.Errorf("disturbed span %v more than doubles the clean span %v", dark.Makespan, clean.Makespan)
	}
}
