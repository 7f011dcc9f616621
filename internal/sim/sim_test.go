package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("event fired at %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock after run = %v, want 5s", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired in order %v, want schedule order", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var finished Time
	e.Schedule(time.Second, func() {
		e.Schedule(2*time.Second, func() {
			finished = e.Now()
		})
	})
	e.Run()
	if finished != 3*time.Second {
		t.Fatalf("nested event fired at %v, want 3s", finished)
	}
}

func TestZeroDelayFiresAtCurrentInstant(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(time.Second, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != time.Second {
		t.Fatalf("zero-delay event fired at %v, want 1s", at)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-time.Second, func() {})
}

// TestAtInPastPanics pins the clock-overflow guard: a delay so long that
// the event's instant wraps to before the current clock panics instead of
// filing the event in the past.
func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("an event instant before now did not panic")
			}
		}()
		e.Schedule(math.MaxInt64, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d after cancelled run, want 0", e.Fired())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	ev := e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	ev.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(3s) fired %d events, want 2", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v after RunUntil(3s)", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("Run after RunUntil fired %d total, want 3", len(fired))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3*time.Second, func() { fired = true })
	e.RunUntil(3 * time.Second)
	if !fired {
		t.Fatal("RunUntil(t) did not fire an event scheduled exactly at t")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	ev := e.Schedule(2*time.Second, func() {})
	ev.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

// Property: regardless of schedule order, events fire in non-decreasing time
// order and the clock never goes backwards.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		e := NewEngine()
		count := int(n%50) + 1
		delays := make([]Time, count)
		for i := range delays {
			delays[i] = Time(r.Intn(1000)) * time.Millisecond
		}
		var fired []Time
		for _, d := range delays {
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		sorted := append([]Time(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted = %d, want 2 immediate grants", granted)
	}
	if r.Busy() != 2 {
		t.Fatalf("Busy() = %d, want 2", r.Busy())
	}
}

func TestResourceQueuesBeyondCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	r.Use(time.Second, func() { order = append(order, 1) })
	r.Use(time.Second, func() { order = append(order, 2) })
	r.Use(time.Second, func() { order = append(order, 3) })
	if r.Waiting() != 2 {
		t.Fatalf("Waiting() = %d, want 2", r.Waiting())
	}
	e.Run()
	if e.Now() != 3*time.Second {
		t.Fatalf("serialized holds finished at %v, want 3s", e.Now())
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
}

func TestResourceParallelHolds(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 3)
	done := 0
	for i := 0; i < 3; i++ {
		r.Use(time.Second, func() { done++ })
	}
	e.Run()
	if e.Now() != time.Second {
		t.Fatalf("3 parallel holds on capacity 3 finished at %v, want 1s", e.Now())
	}
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	NewResource(NewEngine(), 1).Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(0) did not panic")
		}
	}()
	NewResource(NewEngine(), 0)
}

func TestResourceStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	for i := 0; i < 5; i++ {
		r.Use(time.Second, nil)
	}
	e.Run()
	if r.PeakWaiting() != 3 {
		t.Errorf("PeakWaiting = %d, want 3", r.PeakWaiting())
	}
	if r.Grants() != 5 {
		t.Errorf("Grants = %d, want 5", r.Grants())
	}
	if r.Busy() != 0 {
		t.Errorf("Busy after drain = %d, want 0", r.Busy())
	}
}

// Property: with capacity c and n unit holds, the makespan is
// ceil(n/c) time units and the resource never exceeds its capacity.
func TestQuickResourceMakespan(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%40) + 1
		c := int(cRaw%8) + 1
		e := NewEngine()
		r := NewResource(e, c)
		within := true
		for i := 0; i < n; i++ {
			r.Use(time.Second, func() { within = within && r.Busy() <= c })
		}
		e.Run()
		want := Time((n+c-1)/c) * time.Second
		return e.Now() == want && within
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPendingLiveCounter walks the counter through schedule, cancel and
// fire transitions: Pending must track live events exactly (it is O(1) now,
// maintained rather than recounted).
func TestPendingLiveCounter(t *testing.T) {
	e := NewEngine()
	evs := make([]*Event, 6)
	for i := range evs {
		evs[i] = e.Schedule(Time(i+1)*time.Second, func() {})
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending after 6 schedules = %d", e.Pending())
	}
	evs[1].Cancel()
	evs[4].Cancel()
	if e.Pending() != 4 {
		t.Fatalf("Pending after 2 cancels = %d", e.Pending())
	}
	evs[1].Cancel() // double cancel must not double-decrement
	if e.Pending() != 4 {
		t.Fatalf("Pending after double cancel = %d", e.Pending())
	}
	e.RunUntil(3 * time.Second) // fires events at 1s and 3s (2s cancelled)
	if e.Pending() != 2 {
		t.Fatalf("Pending after RunUntil(3s) = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d", e.Pending())
	}
	if e.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", e.Fired())
	}
}

// TestRunUntilCancelledHead checks the peek loop: cancelled events at the
// front of the queue must be collected without firing and without
// advancing the clock past t.
func TestRunUntilCancelledHead(t *testing.T) {
	e := NewEngine()
	var fired []Time
	first := e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	late := e.Schedule(4*time.Second, func() { fired = append(fired, 4) })
	first.Cancel()
	late.Cancel()
	e.RunUntil(3 * time.Second)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want just the 2s event", fired)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v after RunUntil(3s)", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after all live events fired", e.Pending())
	}
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("cancelled 4s event fired: %v", fired)
	}
}

// TestNextAt checks the peek-only query the daemon's pacing loop is
// built on: cancelled heads are skipped, an empty or all-cancelled queue
// reports ok=false, and the call neither advances the clock nor fires
// anything — so an event scheduled afterwards at an earlier instant
// still fires first.
func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on an empty engine reported an event")
	}
	only := e.Schedule(time.Second, func() { t.Fatal("cancelled event fired") })
	only.Cancel()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on an all-cancelled queue reported an event")
	}

	var fired []Time
	head := e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	head.Cancel()
	next, ok := e.NextAt()
	if !ok || next != 3*time.Second {
		t.Fatalf("NextAt = %v, %v; want 3s, true (cancelled 1s head skipped)", next, ok)
	}
	if e.Now() != 0 || e.Fired() != 0 || len(fired) != 0 {
		t.Fatalf("NextAt moved the engine: now %v, fired %d %v", e.Now(), e.Fired(), fired)
	}

	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	if next, _ := e.NextAt(); next != 2*time.Second {
		t.Fatalf("NextAt after an earlier schedule = %v, want 2s", next)
	}
	e.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [2 3]", fired)
	}
}

// TestCancelWithinSameInstantBatch cancels an event from an earlier event
// of the same virtual instant — the cancelled one is already out of the
// priority queue, sitting in the executing batch, and must still not fire.
func TestCancelWithinSameInstantBatch(t *testing.T) {
	e := NewEngine()
	var order []int
	var second *Event
	e.Schedule(time.Second, func() {
		order = append(order, 1)
		second.Cancel()
	})
	second = e.Schedule(time.Second, func() { order = append(order, 2) })
	e.Schedule(time.Second, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run", e.Pending())
	}
}

// TestSameInstantNestedOrdering checks that events scheduled *during* a
// same-instant batch run after everything already scheduled for that
// instant, preserving global schedule order across the batch boundary.
func TestSameInstantNestedOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(time.Second, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 3) })
	})
	e.Schedule(time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestEventPoolReuse checks the free-list contract: cancelling an event
// after it fired is a no-op (and keeps the live counter intact), and
// recycled events behave like fresh ones.
func TestEventPoolReuse(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(time.Second, func() {})
	e.Run()
	ev.Cancel() // fired already: must be a no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after post-fire Cancel", e.Pending())
	}
	fired := 0
	for i := 0; i < 100; i++ { // drive the pool through many reuse cycles
		e.Schedule(time.Second, func() { fired++ })
		e.Schedule(time.Second, func() { fired++ }).Cancel()
		e.Run()
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after reuse cycles", e.Pending())
	}
}

// TestRunUntilThenAt exercises the batch/heap boundary: after RunUntil
// stops mid-queue, scheduling at a pending instant and running must fire
// the new event after the older ones of that instant.
func TestRunUntilThenAt(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.RunUntil(time.Second)
	ev := e.Schedule(time.Second, func() { order = append(order, 3) })
	if ev.at != 2*time.Second {
		t.Fatalf("at = %v", ev.at)
	}
	e.Run()
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestRunUntilThenEarlierSchedule pins a peek regression: stopping at t
// must not commit a later bucket to execution — an event scheduled
// afterwards at an earlier instant has to fire first, and the clock must
// never run backwards.
func TestRunUntilThenEarlierSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	var clocks []Time
	e.Schedule(1*time.Second, func() { order = append(order, 1); clocks = append(clocks, e.Now()) })
	e.Schedule(3*time.Second, func() { order = append(order, 3); clocks = append(clocks, e.Now()) })
	e.RunUntil(1 * time.Second) // fires the 1s event; 3s stays pending
	e.Schedule(1*time.Second, func() { order = append(order, 2); clocks = append(clocks, e.Now()) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[i-1] {
			t.Fatalf("clock ran backwards: %v", clocks)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("final clock = %v, want 3s", e.Now())
	}
}

// TestRunUntilAllCancelledBucket checks peek retires a bucket whose every
// event was cancelled without firing anything or disturbing later ones.
func TestRunUntilAllCancelledBucket(t *testing.T) {
	e := NewEngine()
	fired := false
	a := e.Schedule(1*time.Second, func() {})
	b := e.Schedule(1*time.Second, func() {})
	e.Schedule(2*time.Second, func() { fired = true })
	a.Cancel()
	b.Cancel()
	e.RunUntil(90 * time.Minute)
	if !fired {
		t.Fatal("2s event did not fire past an all-cancelled earlier bucket")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// TestResourceReleaseRacesSameInstantAcquire pins the grant order when a
// Release and a fresh Acquire land in the same virtual instant: the
// queued waiter (FIFO head) gets the freed slot, and the same-instant
// newcomer queues behind it — in both event orderings (release fires
// before the new acquire, and after it).
func TestResourceReleaseRacesSameInstantAcquire(t *testing.T) {
	for _, acquireFirst := range []bool{false, true} {
		e := NewEngine()
		r := NewResource(e, 1)
		var order []string
		r.Acquire(func() {}) // holder; released at 1s below
		r.Acquire(func() { order = append(order, "waiter") })

		release := func() { r.Release() }
		newcomer := func() {
			r.Acquire(func() {
				order = append(order, "newcomer")
				// Hold through the instant so the grant order is observable.
				e.Schedule(time.Second, func() { r.Release() })
			})
		}
		if acquireFirst {
			e.Schedule(time.Second, newcomer)
			e.Schedule(time.Second, release)
		} else {
			e.Schedule(time.Second, release)
			e.Schedule(time.Second, newcomer)
		}
		// Free the waiter's slot so the newcomer eventually runs.
		e.Schedule(2*time.Second, func() { r.Release() })
		e.Run()
		if len(order) != 2 || order[0] != "waiter" || order[1] != "newcomer" {
			t.Errorf("acquireFirst=%v: grant order %v, want [waiter newcomer]", acquireFirst, order)
		}
		if r.Busy() != 0 || r.Waiting() != 0 {
			t.Errorf("acquireFirst=%v: busy=%d waiting=%d after drain", acquireFirst, r.Busy(), r.Waiting())
		}
	}
}

// TestResourcePeakStatsBatchedSameBucket pins PeakWaiting and Grants when
// every acquisition arrives in one same-instant bucket: the queue peaks
// at n−capacity before any release, every request is eventually granted
// exactly once, and the makespan is the ceiling bound.
func TestResourcePeakStatsBatchedSameBucket(t *testing.T) {
	const n, capacity = 9, 2
	e := NewEngine()
	r := NewResource(e, capacity)
	done := 0
	for i := 0; i < n; i++ {
		e.Schedule(time.Second, func() {
			r.Use(time.Second, func() { done++ })
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if r.PeakWaiting() != n-capacity {
		t.Errorf("PeakWaiting = %d, want %d (whole batch queued before the first release)", r.PeakWaiting(), n-capacity)
	}
	if r.Grants() != n {
		t.Errorf("Grants = %d, want %d", r.Grants(), n)
	}
	// 1s of arrival + ceil(9/2) rounds of 1s holds.
	if want := time.Second + Time((n+capacity-1)/capacity)*time.Second; e.Now() != want {
		t.Errorf("makespan = %v, want %v", e.Now(), want)
	}
}

// TestUseWaitReportsQueueTime pins the UseWaitArg contract: the callback
// receives exactly the time spent queued before the grant (zero for the
// immediate grant), and the holds still serialize FIFO.
func TestUseWaitReportsQueueTime(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var waits []Time
	for i := 0; i < 3; i++ {
		r.UseWaitArg(time.Second, func(_ any, w Time) { waits = append(waits, w) }, nil)
	}
	if r.Waiting() != 2 {
		t.Fatalf("Waiting = %d, want 2", r.Waiting())
	}
	e.Run()
	want := []Time{0, time.Second, 2 * time.Second}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("waits[%d] = %v, want %v", i, waits[i], want[i])
		}
	}
	// A nil done must not crash the release path.
	r.UseWaitArg(time.Second, nil, nil)
	e.Run()
	if r.Busy() != 0 {
		t.Errorf("Busy = %d after nil-done UseWaitArg drained", r.Busy())
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*time.Millisecond, func() {})
		}
		e.Run()
	}
}
