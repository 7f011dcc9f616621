package federation

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// twoStorageGridSpecs returns two identical quiet member grids.
func twoStorageGridSpecs() []GridSpec {
	specs := make([]GridSpec, 2)
	for i := range specs {
		cfg := testGridConfig(8, 2*time.Second)
		cfg.Seed = uint64(70 + i)
		specs[i] = GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	return specs
}

// TestSEOutageScenarios is the table-driven storage-outage suite of the
// acceptance criteria: a permanent SE outage strands the only replica of
// a job's input. Without repair the job must fail terminally with
// ErrReplicaLost after burning its re-staging budget — and must NOT be
// re-brokered, the data being equally lost everywhere. With a k=2
// replication floor the same scenario repairs the file onto the healthy
// grid before the outage, every job completes, no replica is ever
// reported lost, and the disturbed span stays within 2x the clean one.
func TestSEOutageScenarios(t *testing.T) {
	const (
		file   = "gfn://solo"
		fileMB = 60
		downAt = 60 * time.Second // after the 35 s repair transfer lands
	)
	run := func(t *testing.T, minReplicas int, outages []Outage) (*Federation, []*grid.JobRecord) {
		t.Helper()
		eng := sim.NewEngine()
		f, err := New(eng, Config{
			Grids:       twoStorageGridSpecs(),
			Policy:      Pinned(0),
			Rebroker:    2,
			Outages:     outages,
			MinReplicas: minReplicas,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Catalog().RegisterAt(file, fileMB, grid.Site{Grid: "g1"})
		const nJobs = 3
		finals := make([]*grid.JobRecord, nJobs)
		for i := 0; i < nJobs; i++ {
			i := i
			eng.Schedule(sim.Time(70*time.Second)+sim.Time(i)*sim.Time(time.Second), func() {
				f.Submit(grid.JobSpec{
					Name:    fmt.Sprintf("job%d", i),
					Inputs:  []string{file},
					Runtime: 10 * time.Second,
				}, func(r *grid.JobRecord) { finals[i] = r })
			})
		}
		eng.Run()
		for i, r := range finals {
			if r == nil {
				t.Fatalf("job%d never reached a terminal state", i)
			}
		}
		return f, finals
	}
	outage := []Outage{{Grid: "g1", At: downAt, Storage: true}} // never recovers

	t.Run("single-replica-loss", func(t *testing.T) {
		f, finals := run(t, 0, outage)
		for _, r := range finals {
			if r.Status != grid.StatusFailed || !errors.Is(r.Err, grid.ErrReplicaLost) {
				t.Errorf("%s: status %v err %v, want a terminal ErrReplicaLost failure", r.Spec.Name, r.Status, r.Err)
			}
			if r.Restages != 4 {
				t.Errorf("%s: %d re-staging rounds before giving up, want the default budget of 4", r.Spec.Name, r.Restages)
			}
		}
		// The shared catalog makes the loss global: re-brokering a lost
		// replica would just fail again elsewhere, so none may happen.
		for i := 0; i < f.Size(); i++ {
			if n := f.Telemetry(i).Rebrokered; n != 0 {
				t.Errorf("grid %d re-brokered %d replica-lost jobs", i, n)
			}
		}
		if f.Telemetry(1).Dispatched != 0 {
			t.Error("work was dispatched to the storage-dark grid's pipeline")
		}
		if got := f.Grid(0).Restages(); got != 12 {
			t.Errorf("g0 accounted %d re-staging rounds, want 3 jobs x 4", got)
		}
	})

	t.Run("k2-repair-prevents-loss", func(t *testing.T) {
		f, finals := run(t, 2, outage)
		for _, r := range finals {
			if r.Status != grid.StatusCompleted {
				t.Errorf("%s: status %v err %v, want completion via the repaired copy", r.Spec.Name, r.Status, r.Err)
			}
			if errors.Is(r.Err, grid.ErrReplicaLost) {
				t.Errorf("%s: replica reported lost despite the k=2 floor", r.Spec.Name)
			}
		}
		if f.Repairs() != 1 || f.RepairedMB() != fileMB {
			t.Errorf("repairs = %d (%v MB), want exactly one %v MB copy", f.Repairs(), f.RepairedMB(), fileMB)
		}
		if !hasSite(f.Catalog().Replicas(file), grid.Site{Grid: "g0"}) {
			t.Error("the repair copy never landed on g0")
		}

		clean, cleanFinals := run(t, 2, nil)
		_ = clean
		span := func(recs []*grid.JobRecord) sim.Time {
			var last sim.Time
			for _, r := range recs {
				if r.Completed > last {
					last = r.Completed
				}
			}
			return last
		}
		if s, cs := span(finals), span(cleanFinals); s > 2*cs {
			t.Errorf("repaired span %v more than doubles the clean span %v", s, cs)
		}
	})
}

func hasSite(reps []grid.Replica, site grid.Site) bool {
	for _, r := range reps {
		if r.Site == site {
			return true
		}
	}
	return false
}

// TestComputeDarkGridFailsFetches pins the satellite fix: a grid taken
// fully dark (SetDown — a compute/middleware outage) must darken its
// storage elements with it, so fetches sourced from it fail instead of
// serving data from a powered-off site. The only replica living there,
// jobs elsewhere burn their re-staging budget and fail terminally with
// ErrReplicaLost — and are not re-brokered despite the budget for it.
func TestComputeDarkGridFailsFetches(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Grids: twoStorageGridSpecs(), Policy: Pinned(0), Rebroker: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.Catalog().RegisterAt("gfn://f", 60, grid.Site{Grid: "g1"})
	f.SetDown(1)
	if !f.Grid(1).StorageDown() {
		t.Fatal("a fully dark grid does not report its storage dark")
	}
	var final *grid.JobRecord
	f.Submit(grid.JobSpec{Name: "consumer", Inputs: []string{"gfn://f"}, Runtime: time.Second},
		func(r *grid.JobRecord) { final = r })
	eng.Run()
	if final == nil {
		t.Fatal("job never terminated")
	}
	if !errors.Is(final.Err, grid.ErrReplicaLost) {
		t.Fatalf("err = %v, want ErrReplicaLost: the dark grid's replica was fetched", final.Err)
	}
	if f.Telemetry(0).Rebrokered != 0 {
		t.Error("a replica-lost job was re-brokered")
	}
}

// TestMidFetchSEDeathRestagesFromSurvivor pins the in-flight leg check:
// a WAN fetch is in progress when its source SE dies, the leg fails at
// completion, and one backed-off re-staging round re-plans onto the
// surviving replica — with the transfer accounting describing the final
// successful round only (the WAN fetch is accounted once, not doubled by
// the dead first attempt).
func TestMidFetchSEDeathRestagesFromSurvivor(t *testing.T) {
	specs := make([]GridSpec, 3)
	for i := range specs {
		cfg := testGridConfig(8, 2*time.Second)
		cfg.Seed = uint64(80 + i)
		specs[i] = GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids:      specs,
		Policy:     Pinned(0),
		WANStreams: 1,
		// The fetch leg runs [10 s, 135 s]: UI 2 + broker 3 + dispatch 5,
		// then 240 MB at 2 MB/s + 5 s latency. The source dies at 130 s,
		// inside the leg, and never recovers.
		Outages: []Outage{{Grid: "g1", At: 130 * time.Second, Storage: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const file = "gfn://big"
	f.Catalog().RegisterAt(file, 240, grid.Site{Grid: "g1"})
	f.Catalog().AddReplica(file, grid.Site{Grid: "g2"})
	var final *grid.JobRecord
	f.Submit(grid.JobSpec{Name: "reader", Inputs: []string{file}, Runtime: 10 * time.Second},
		func(r *grid.JobRecord) { final = r })
	eng.Run()

	if final == nil || final.Status != grid.StatusCompleted {
		t.Fatalf("job did not complete: %+v", final)
	}
	if final.Restages != 1 {
		t.Errorf("restages = %d, want exactly one re-staging round", final.Restages)
	}
	if final.Attempts != 1 {
		t.Errorf("attempts = %d, want the re-stage to stay within one attempt", final.Attempts)
	}
	// One 125 s WAN fetch in the books — the dead round's leg is not
	// folded into the final accounting.
	wantFetch := 125 * time.Second
	if final.WANFetch != wantFetch || final.RemoteFetch != wantFetch {
		t.Errorf("WANFetch/RemoteFetch = %v/%v, want %v once", final.WANFetch, final.RemoteFetch, wantFetch)
	}
	if final.WANWait != 0 {
		t.Errorf("WANWait = %v on an uncontended run, want 0", final.WANWait)
	}
	if got := f.Grid(0).Restages(); got != 1 {
		t.Errorf("g0 cluster accounting shows %d restages, want 1", got)
	}
	// The first round died at 135 s, the retry fired at 165 s and fetched
	// from g2: completion is 165+125 (fetch) + 10 (compute) = 300 s.
	if final.Completed != sim.Time(300*time.Second) {
		t.Errorf("completed at %v, want exactly 300s", time.Duration(final.Completed))
	}
}

// seFlapScenario runs the correlated-SE-failure comparison arm: jobs
// arrive steadily, every job reads the one hot file whose only replica
// lives on g1, and g1's storage flaps on a fixed cycle (dark 240 s, up
// 360 s). g0 has a much slower UI, so an overhead ranking must actively
// weigh storage safety to leave the fast-but-flaky grid.
func seFlapScenario(t *testing.T, policy Policy) (*Federation, []*grid.JobRecord) {
	t.Helper()
	slow := testGridConfig(8, 30*time.Second)
	slow.Seed = 90
	fast := testGridConfig(8, 2*time.Second)
	fast.Seed = 91
	var outages []Outage
	for k := 0; k < 10; k++ {
		outages = append(outages, Outage{
			Grid: "g1", At: 300*time.Second + time.Duration(k)*600*time.Second,
			For: 240 * time.Second, Storage: true,
		})
	}
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids:   []GridSpec{{Name: "g0", Config: slow}, {Name: "g1", Config: fast}},
		Policy:  policy,
		Outages: outages,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Catalog().RegisterAt("gfn://hot", 240, grid.Site{Grid: "g1"})
	const nJobs = 90
	finals := make([]*grid.JobRecord, nJobs)
	for i := 0; i < nJobs; i++ {
		i := i
		eng.Schedule(sim.Time(i)*sim.Time(60*time.Second), func() {
			f.Submit(grid.JobSpec{
				Name:    fmt.Sprintf("job%02d", i),
				Inputs:  []string{"gfn://hot"},
				Runtime: 10 * time.Second,
			}, func(r *grid.JobRecord) { finals[i] = r })
		})
	}
	eng.Run()
	for i, r := range finals {
		if r == nil {
			t.Fatalf("job%02d never terminated", i)
		}
	}
	return f, finals
}

// TestRankedSafeBeatsRankedUnderSEFlaps is the acceptance comparison:
// under correlated SE failures (every element of g1 dies together, on a
// cycle), the safety-aware ranked broker completes strictly more jobs
// than the safety-blind one. The blind ranking keeps herding onto the
// storage-dark grid — during an outage the dark grid's affinity signals
// vanish, making it look cheap exactly when staging there cannot succeed
// — while the safe ranking places jobs on the slow-but-healthy grid and
// lets bounded re-staging ride out the windows.
func TestRankedSafeBeatsRankedUnderSEFlaps(t *testing.T) {
	completed := func(finals []*grid.JobRecord) int {
		n := 0
		for _, r := range finals {
			if r.Status == grid.StatusCompleted {
				n++
			}
		}
		return n
	}
	_, blindFinals := seFlapScenario(t, Ranked())
	_, safeFinals := seFlapScenario(t, RankedSafe())
	blind, safe := completed(blindFinals), completed(safeFinals)
	t.Logf("completed jobs: ranked-safe %d/90, overhead-ranked %d/90", safe, blind)
	if safe <= blind {
		t.Errorf("ranked-safe completed %d jobs, overhead-ranked %d — safety awareness bought nothing", safe, blind)
	}
	if safe < 80 {
		t.Errorf("ranked-safe completed only %d/90 jobs under SE flaps", safe)
	}
}

// TestSEFlapDeterminism pins the storage-outage machinery bit-for-bit:
// same configuration, same seeds — same per-attempt schedule, errors and
// re-staging counts across runs.
func TestSEFlapDeterminism(t *testing.T) {
	fp := func(f *Federation) uint64 {
		h := fnv.New64a()
		for _, rec := range f.Records() {
			fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%v\n",
				rec.Spec.Name, rec.Grid, rec.Submitted, rec.Completed, rec.Restages, rec.Status, rec.Err)
		}
		return h.Sum64()
	}
	fa, _ := seFlapScenario(t, RankedSafe())
	fb, _ := seFlapScenario(t, RankedSafe())
	if a, b := fp(fa), fp(fb); a != b {
		t.Fatalf("SE-flap scenario not deterministic: %#x vs %#x", a, b)
	}
}

// TestRepairTopsUpToFloor pins the repair loop's sequential top-up: a
// single-copy registration under a k=3 floor is repaired one transfer at
// a time until three grids hold live copies.
func TestRepairTopsUpToFloor(t *testing.T) {
	specs := make([]GridSpec, 3)
	for i := range specs {
		cfg := testGridConfig(4, 2*time.Second)
		cfg.Seed = uint64(95 + i)
		specs[i] = GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	eng := sim.NewEngine()
	f, err := New(eng, Config{Grids: specs, MinReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.Catalog().RegisterAt("gfn://f", 60, grid.Site{Grid: "g1"})
	eng.Run()
	if f.Repairs() != 2 || f.RepairedMB() != 120 {
		t.Errorf("repairs = %d (%v MB), want 2 copies totalling 120 MB", f.Repairs(), f.RepairedMB())
	}
	reps := f.Catalog().Replicas("gfn://f")
	if len(reps) != 3 {
		t.Fatalf("replica set after repair = %+v, want copies on all three grids", reps)
	}
}

// TestStorageOutageValidation pins the construction-time checks of the
// storage configuration: full and storage windows of one grid are
// independent dimensions and may overlap, same-mode windows may not, and
// negative capacity or floor are rejected.
func TestStorageOutageValidation(t *testing.T) {
	specs := []GridSpec{{Name: "a", Config: testGridConfig(4, 2*time.Second)}}
	mixed := []Outage{
		{Grid: "a", At: time.Hour, For: time.Hour},
		{Grid: "a", At: time.Hour, For: 2 * time.Hour, Storage: true},
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: mixed}); err != nil {
		t.Errorf("overlapping full and storage windows were rejected: %v", err)
	}
	sameMode := []Outage{
		{Grid: "a", At: time.Hour, For: 2 * time.Hour, Storage: true},
		{Grid: "a", At: 2 * time.Hour, For: time.Hour, Storage: true},
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: sameMode}); err == nil {
		t.Error("overlapping storage windows were accepted")
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, SECapacityMB: -1}); err == nil {
		t.Error("negative SECapacityMB was accepted")
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, MinReplicas: -1}); err == nil {
		t.Error("negative MinReplicas was accepted")
	}
}

// TestStorageOutageWindowRecovers pins the window lifecycle on the
// storage dimension: dark inside the window, live outside, with the
// compute dimension untouched throughout.
func TestStorageOutageWindowRecovers(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids:   twoStorageGridSpecs(),
		Outages: []Outage{{Grid: "g1", At: 10 * time.Minute, For: 10 * time.Minute, Storage: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		at   time.Duration
		dark bool
	}{{5 * time.Minute, false}, {15 * time.Minute, true}, {25 * time.Minute, false}} {
		eng.RunUntil(sim.Time(probe.at))
		if f.Grid(1).StorageDown() != probe.dark {
			t.Errorf("StorageDown at %v = %v, want %v", probe.at, f.Grid(1).StorageDown(), probe.dark)
		}
		if f.Grid(1).Down() {
			t.Errorf("storage-only outage took the compute dimension dark at %v", probe.at)
		}
	}
}
