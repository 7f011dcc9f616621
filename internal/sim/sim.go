// Package sim implements the discrete-event simulation engine on which the
// grid substrate and the workflow enactor run.
//
// Time is virtual: a time.Duration measured from the start of the run. All
// activity is expressed as events (callbacks) scheduled at virtual instants.
// Events scheduled for the same instant execute in schedule order, which
// makes runs deterministic for a given seed.
//
// The engine is built for high event rates: events scheduled for the same
// instant share one bucket (a single priority-queue node), so bursts —
// thousands of data-parallel completions at one virtual time — cost O(1)
// per event instead of O(log n) heap sifts, and whole buckets execute as
// batches. Event and bucket objects are recycled through free lists, so
// steady-state scheduling allocates nothing. A consequence of pooling: an
// *Event pointer is only valid until its callback has run (or until a
// cancelled event is collected). Cancelling before then is always safe;
// retaining a pointer past that and cancelling later is not, because the
// engine may have reused the object for a new event.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a virtual instant, measured as an offset from the simulation start.
type Time = time.Duration

// Event is a scheduled callback. It can be cancelled before it fires.
// Every event carries an argument-passing callback: hot paths share one
// static function across events and pass their state as the argument
// instead of allocating a closure per event, and Schedule passes a plain
// func() as the argument of a static adapter.
type Event struct {
	eng      *Engine
	at       Time
	afn      func(any)
	arg      any
	canceled bool
	fired    bool
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op — but see the
// package comment: the pointer must not be retained after the callback
// has run.
func (e *Event) Cancel() {
	if e.canceled || e.fired {
		return
	}
	e.canceled = true
	e.eng.live--
}

// bucket holds every not-yet-fired event of one virtual instant, in
// schedule order.
type bucket struct {
	at     Time
	events []*Event
	index  int // heap index
}

type bucketHeap []*bucket

func (h bucketHeap) Len() int           { return len(h) }
func (h bucketHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h bucketHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *bucketHeap) Push(x any) {
	b := x.(*bucket)
	b.index = len(*h)
	*h = append(*h, b)
}
func (h *bucketHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	b.index = -1
	*h = old[:n-1]
	return b
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all simulated components run in event callbacks on the
// engine's (single) control flow, which is what makes runs deterministic.
type Engine struct {
	now     Time
	buckets bucketHeap
	byTime  map[Time]*bucket // pending instants → their bucket
	fired   uint64
	live    int // scheduled and neither fired nor cancelled

	// batch is the bucket currently executing; batchPos is the next entry
	// to fire. Events scheduled while a batch drains (even at the same
	// instant) land in a fresh bucket, which the heap orders after the
	// draining one — schedule order is preserved because the new arrivals
	// are younger than everything already in the batch.
	batch    []*Event
	batchPos int

	freeEvents  []*Event
	freeBuckets []*bucket
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{byTime: make(map[Time]*bucket)} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired or
// cancelled. The count is maintained on schedule/fire/cancel, so the call
// is O(1).
func (e *Engine) Pending() int { return e.live }

// Schedule arranges for fn to run after delay. A negative delay panics:
// scheduling into the past would break causality.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return e.ScheduleArg(delay, callFunc, fn)
}

// callFunc adapts a Schedule callback to the ScheduleArg shape. A func
// value is pointer-shaped, so boxing it in the arg slot allocates nothing.
func callFunc(arg any) { arg.(func())() }

// ScheduleArg is Schedule for argument-passing callbacks: fn(arg) runs
// after delay. Because fn can be a package-level function and arg a
// pointer, hot paths schedule without allocating a closure per event.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: ScheduleArg with nil callback")
	}
	ev := e.newEvent(e.now + delay)
	ev.afn, ev.arg = fn, arg
	return ev
}

// newEvent pulls a recycled (or new) event, stamps its instant, and files
// it in the instant's bucket. The caller fills in the callback. An instant
// before the clock can only come from a delay that overflows the clock's
// range, and panics like a negative delay.
func (e *Engine) newEvent(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event instant %v precedes now (%v)", t, e.now))
	}
	var ev *Event
	if n := len(e.freeEvents); n > 0 {
		ev = e.freeEvents[n-1]
		e.freeEvents[n-1] = nil
		e.freeEvents = e.freeEvents[:n-1]
		*ev = Event{eng: e, at: t}
	} else {
		ev = &Event{eng: e, at: t}
	}
	e.live++
	b, ok := e.byTime[t]
	if !ok {
		if n := len(e.freeBuckets); n > 0 {
			b = e.freeBuckets[n-1]
			e.freeBuckets[n-1] = nil
			e.freeBuckets = e.freeBuckets[:n-1]
			b.at = t
		} else {
			b = &bucket{at: t}
		}
		e.byTime[t] = b
		heap.Push(&e.buckets, b)
	}
	b.events = append(b.events, ev)
	return ev
}

// recycle returns a consumed (fired or cancelled-and-collected) event to
// the free list.
func (e *Engine) recycle(ev *Event) {
	ev.afn, ev.arg = nil, nil
	e.freeEvents = append(e.freeEvents, ev)
}

// refill swaps the earliest bucket's events into the execution batch.
// It reports whether any events are available.
func (e *Engine) refill() bool {
	if len(e.buckets) == 0 {
		return false
	}
	b := heap.Pop(&e.buckets).(*bucket)
	delete(e.byTime, b.at)
	// Swap slices so the drained batch's capacity is reused by the next
	// bucket instead of being garbage.
	e.batch, b.events = b.events, e.batch[:0]
	e.batchPos = 0
	e.freeBuckets = append(e.freeBuckets, b)
	return true
}

// next returns the next event to consider firing; nil means none remain.
// Cancelled events are returned too (the caller skips and recycles them).
func (e *Engine) next() *Event {
	for {
		if e.batchPos < len(e.batch) {
			ev := e.batch[e.batchPos]
			e.batch[e.batchPos] = nil
			e.batchPos++
			return ev
		}
		if !e.refill() {
			return nil
		}
	}
}

// peek returns the earliest pending (non-cancelled) event without firing
// it; nil means none remain. Cancelled events at the front of the batch or
// of the earliest bucket are collected on the way. The heap is inspected
// in place — peek must not commit a bucket to execution, because events
// scheduled after a RunUntil stop may precede it.
func (e *Engine) peek() *Event {
	for e.batchPos < len(e.batch) {
		ev := e.batch[e.batchPos]
		if !ev.canceled {
			return ev
		}
		e.batch[e.batchPos] = nil
		e.batchPos++
		e.recycle(ev)
	}
	for len(e.buckets) > 0 {
		b := e.buckets[0]
		for len(b.events) > 0 {
			ev := b.events[0]
			if !ev.canceled {
				return ev
			}
			b.events[0] = nil
			b.events = b.events[1:]
			e.recycle(ev)
		}
		// Every event of the earliest bucket was cancelled: retire it.
		heap.Pop(&e.buckets)
		delete(e.byTime, b.at)
		e.freeBuckets = append(e.freeBuckets, b)
	}
	return nil
}

// Step fires the next pending event, advancing the clock to its instant.
// It reports whether an event fired (false means the queue was empty).
func (e *Engine) Step() bool {
	for {
		ev := e.next()
		if ev == nil {
			return false
		}
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		e.live--
		ev.fired = true
		afn, arg := ev.afn, ev.arg
		afn(arg)
		e.recycle(ev)
		return true
	}
}

// Run fires events until none remain.
//
//moteur:keep test driver: drains the engine in the tests of reached code
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with instants <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// NextAt returns the instant of the earliest pending (non-cancelled)
// event. ok is false when no events remain. The clock does not advance
// and no bucket is committed to execution, so events scheduled afterwards
// for earlier instants still fire in order.
func (e *Engine) NextAt() (t Time, ok bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
