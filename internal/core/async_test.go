package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// TestStartConcurrentEnactors drives two independent enactors on one
// shared engine — the campaign execution mode — and checks both complete
// with the same makespans they would have alone.
func TestStartConcurrentEnactors(t *testing.T) {
	eng := sim.NewEngine()
	opts := Options{DataParallelism: true, ServiceParallelism: true}
	const nD = 4
	mk := func() *Enactor {
		e, err := New(eng, localChain(eng, constT(3, nD, 10*time.Second)), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	var ra, rb *Result
	if err := a.Start(map[string][]string{"src": itemValues(nD)}, func(r *Result, err error) {
		if err != nil {
			t.Errorf("a failed: %v", err)
		}
		ra = r
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(map[string][]string{"src": itemValues(nD)}, func(r *Result, err error) {
		if err != nil {
			t.Errorf("b failed: %v", err)
		}
		rb = r
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ra == nil || rb == nil {
		t.Fatal("an enactor never completed")
	}
	// Local services are uncontended between the two enactors, so both
	// behave as if alone: ΣDSP = nW·T.
	want := 30 * time.Second
	if ra.Makespan != want || rb.Makespan != want {
		t.Fatalf("makespans %v/%v, want %v", ra.Makespan, rb.Makespan, want)
	}
	if len(ra.Outputs["sink"]) != nD || len(rb.Outputs["sink"]) != nD {
		t.Fatal("missing sink outputs")
	}
}

// TestStartOffsetMakespanIsRelative: an enactor started at t>0 reports a
// makespan relative to its start, not to the epoch.
func TestStartOffsetMakespanIsRelative(t *testing.T) {
	eng := sim.NewEngine()
	e, err := New(eng, localChain(eng, constT(2, 3, 10*time.Second)),
		Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	offset := sim.Time(5 * time.Minute)
	eng.Schedule(offset, func() {
		if err := e.Start(map[string][]string{"src": itemValues(3)}, func(r *Result, err error) {
			if err != nil {
				t.Errorf("run failed: %v", err)
			}
			res = r
		}); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if res == nil {
		t.Fatal("never completed")
	}
	if res.Makespan != 20*time.Second {
		t.Fatalf("makespan %v, want 20s (relative to start)", res.Makespan)
	}
	if eng.Now() != offset+sim.Time(20*time.Second) {
		t.Fatalf("finished at %v", eng.Now())
	}
}

func TestStartValidation(t *testing.T) {
	eng := sim.NewEngine()
	e, err := New(eng, localChain(eng, constT(1, 1, time.Second)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(map[string][]string{"src": {"D0"}}, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	if err := e.Start(map[string][]string{}, func(*Result, error) {}); err == nil {
		t.Fatal("missing source input accepted")
	}
	if err := e.Start(map[string][]string{"src": {"D0"}}, func(*Result, error) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(map[string][]string{"src": {"D0"}}, func(*Result, error) {}); err == nil {
		t.Fatal("double Start accepted")
	}
}

// TestStartFailureNotifiesOnce: a failing service reports through the
// callback exactly once, even with other invocations still in flight.
func TestStartFailureNotifiesOnce(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("failing")
	w.AddSource("src")
	// A service that errors on one specific item while others are running.
	boom := &erroringService{eng: eng, badItem: "D1"}
	w.AddService("P", boom, []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "P", "in")
	w.Connect("P", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var got error
	if err := e.Start(map[string][]string{"src": itemValues(4)}, func(r *Result, err error) {
		calls++
		got = err
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if calls != 1 {
		t.Fatalf("completion callback ran %d times", calls)
	}
	if got == nil || !errors.Is(got, errBoom) {
		t.Fatalf("err = %v, want errBoom", got)
	}
}

// TestFailurePropagationStops: once an execution fails, completions of
// invocations already in flight must not deliver outputs or pump new
// invocations — on a shared engine, a dead tenant would otherwise keep
// submitting its whole remaining workflow.
func TestFailurePropagationStops(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("failing-chain")
	w.AddSource("src")
	boom := &erroringService{eng: eng, badItem: "D1"}
	counter := &countingService{eng: eng}
	w.AddService("P1", boom, []string{"in"}, []string{"out"})
	w.AddService("P2", counter, []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "P1", "in")
	w.Connect("P1", "out", "P2", "in")
	w.Connect("P2", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	if err := e.Start(map[string][]string{"src": itemValues(10)}, func(r *Result, err error) {
		failed = err != nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run() // drain everything, as a shared campaign engine would
	if !failed {
		t.Fatal("run did not fail")
	}
	// All ten P1 completions land at the same instant; only those firing
	// before D1's failure (just D0, which precedes it in schedule order)
	// may have delivered downstream.
	if counter.invocations > 1 {
		t.Fatalf("failed execution kept pumping: downstream service ran %d times", counter.invocations)
	}
}

var errBoom = errors.New("boom")

type erroringService struct {
	eng     *sim.Engine
	badItem string
}

func (s *erroringService) Name() string { return "erroring" }

func (s *erroringService) Invoke(req services.Request, done func(services.Response)) {
	bad := req.Inputs["in"] == s.badItem
	s.eng.Schedule(10*time.Second, func() {
		if bad {
			done(services.Response{Err: errBoom})
			return
		}
		done(services.Response{Outputs: map[string]string{"out": req.Inputs["in"]}})
	})
}

// TestSetDataGroupSizeMidRun retunes batching while invocations are
// queued: items admitted after the change are batched, shrinking the
// number of service executions.
func TestSetDataGroupSizeMidRun(t *testing.T) {
	eng := sim.NewEngine()
	counter := &countingService{eng: eng}
	w := workflow.New("batched")
	w.AddSource("src")
	w.AddService("P", counter, []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "P", "in")
	w.Connect("P", "out", "sink", workflow.SinkPort)

	// SetDataGroupSize only applies to wrapper-backed services; on a
	// workflow with none it must be a safe no-op at any instant.
	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	e.SetDataGroupSize(8) // before Start
	var res *Result
	if err := e.Start(map[string][]string{"src": itemValues(3)}, func(r *Result, err error) {
		if err != nil {
			t.Errorf("run failed: %v", err)
		}
		res = r
	}); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(time.Second, func() { e.SetDataGroupSize(0) }) // mid-run, clamped to 1
	eng.Run()
	if res == nil {
		t.Fatal("never completed")
	}
	if counter.invocations != 3 {
		t.Fatalf("local service saw %d invocations, want 3 (batching must not apply)", counter.invocations)
	}
	if e.Options().DataGroupSize != 1 {
		t.Fatalf("DataGroupSize = %d after clamped retune", e.Options().DataGroupSize)
	}
}

type countingService struct {
	eng         *sim.Engine
	invocations int
}

func (s *countingService) Name() string { return "counting" }

func (s *countingService) Invoke(req services.Request, done func(services.Response)) {
	s.invocations++
	s.eng.Schedule(time.Second, func() {
		done(services.Response{Outputs: map[string]string{"out": req.Inputs["in"]}})
	})
}

func TestProgress(t *testing.T) {
	eng := sim.NewEngine()
	e, err := New(eng, localChain(eng, constT(2, 5, 10*time.Second)),
		Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, known := e.Progress(); known {
		t.Fatal("Progress known before Start")
	}
	var finishedRun bool
	if err := e.Start(map[string][]string{"src": itemValues(5)}, func(*Result, error) {
		finishedRun = true
	}); err != nil {
		t.Fatal(err)
	}
	fin, exp, known := e.Progress()
	if !known || exp != 10 || fin != 0 {
		t.Fatalf("at start: finished=%d expected=%d known=%v, want 0/10/true", fin, exp, known)
	}
	eng.Run()
	if !finishedRun {
		t.Fatal("run incomplete")
	}
	fin, exp, known = e.Progress()
	if !known || fin != exp || fin != 10 {
		t.Fatalf("at end: finished=%d expected=%d known=%v, want 10/10/true", fin, exp, known)
	}
}
