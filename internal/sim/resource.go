package sim

// Resource is a capacity-limited server with a FIFO wait queue. It is the
// building block for worker nodes, network links, and the serialized grid
// submission interface.
//
// A caller acquires a slot with Acquire; when a slot is granted the supplied
// callback runs (in virtual time). The holder must call Release exactly once
// when done. For the common hold-for-a-duration pattern, Use wraps
// Acquire/Schedule/Release.
//
// The Arg forms (AcquireArg, UseWaitArg) mirror Engine.ScheduleArg:
// callers pass a static function plus a pointer-shaped argument instead of
// a fresh closure, and the hold-for-a-duration machinery recycles its
// per-hold bookkeeping through a free list, so steady-state resource use
// allocates nothing.
type Resource struct {
	eng       *Engine
	capacity  int
	busy      int
	queue     []waiter
	peakWait  int
	grants    uint64
	freeHolds []*hold
}

// waiter is one queued acquisition: a static function plus argument.
type waiter struct {
	afn func(any)
	arg any
}

// hold is the recycled bookkeeping of one Use/UseWaitArg hold: the slot wait
// start, the hold duration, and the completion callback. It cycles
// acquire → schedule → release through package-level functions, so the
// whole hold costs zero allocations once the resource's free list is warm.
type hold struct {
	r      *Resource
	start  Time
	waited Time
	d      Time
	afn    func(any, Time)
	arg    any
}

// NewResource returns a resource with the given number of slots on the
// engine. Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource with non-positive capacity")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// Busy returns the number of currently held slots.
func (r *Resource) Busy() int { return r.busy }

// Waiting returns the number of queued acquisition requests.
func (r *Resource) Waiting() int { return len(r.queue) }

// PeakWaiting returns the maximum observed queue length.
func (r *Resource) PeakWaiting() int { return r.peakWait }

// Grants returns how many acquisitions have been granted so far.
func (r *Resource) Grants() uint64 { return r.grants }

// Acquire requests a slot. granted runs as soon as a slot is available
// (immediately, in the current event, if one is free). The holder must call
// Release exactly once afterwards.
func (r *Resource) Acquire(granted func()) {
	if granted == nil {
		panic("sim: Acquire with nil callback")
	}
	r.AcquireArg(callFunc, granted)
}

// AcquireArg is Acquire for argument-passing callbacks: granted(arg) runs
// as soon as a slot is available. The holder must call Release exactly
// once afterwards.
func (r *Resource) AcquireArg(granted func(any), arg any) {
	if granted == nil {
		panic("sim: AcquireArg with nil callback")
	}
	r.acquire(waiter{afn: granted, arg: arg})
}

func (r *Resource) acquire(w waiter) {
	if r.busy < r.capacity {
		r.grant(w)
		return
	}
	r.queue = append(r.queue, w)
	if len(r.queue) > r.peakWait {
		r.peakWait = len(r.queue)
	}
}

func (r *Resource) grant(w waiter) {
	r.busy++
	r.grants++
	w.afn(w.arg)
}

// Release returns a slot. If requests are queued, the oldest one is granted
// within the same virtual instant.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic("sim: Release without matching Acquire")
	}
	r.busy--
	if len(r.queue) > 0 {
		next := r.queue[0]
		// Shift rather than re-slice forever; queues here are short-lived.
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = waiter{}
		r.queue = r.queue[:n]
		r.grant(next)
	}
}

// Use acquires a slot, holds it for d, then releases it and calls done
// (which may be nil). It is the hold-for-a-duration convenience wrapper.
func (r *Resource) Use(d Time, done func()) {
	if done == nil {
		r.UseWaitArg(d, nil, nil)
		return
	}
	r.UseWaitArg(d, useDone, done)
}

// useDone adapts a Use completion callback to the UseWaitArg shape. The
// func value is pointer-shaped, so boxing it in the arg slot is free.
func useDone(arg any, _ Time) { arg.(func())() }

// UseWaitArg is Use with wait-time reporting, for argument-passing
// callbacks: it acquires a slot, holds it for d, releases it, and calls
// done(arg, waited) — done may be nil — where waited is the virtual time
// the request spent queued before the grant (zero when a slot was free on
// arrival). It is the building block of contended transfer channels,
// whose callers account channel congestion separately from the transfer
// itself. The per-hold bookkeeping is recycled through the resource's
// free list, so a warm hold allocates nothing.
func (r *Resource) UseWaitArg(d Time, done func(any, Time), arg any) {
	var h *hold
	if n := len(r.freeHolds); n > 0 {
		h = r.freeHolds[n-1]
		r.freeHolds[n-1] = nil
		r.freeHolds = r.freeHolds[:n-1]
	} else {
		h = &hold{r: r}
	}
	h.start = r.eng.Now()
	h.d = d
	h.afn, h.arg = done, arg
	r.acquire(waiter{afn: holdGranted, arg: h})
}

// holdGranted runs when a hold's slot is granted: it records the queueing
// wait and schedules the release.
func holdGranted(x any) {
	h := x.(*hold)
	h.waited = h.r.eng.Now() - h.start
	h.r.eng.ScheduleArg(h.d, holdExpire, h)
}

// holdExpire runs when a hold's duration elapses: it releases the slot
// (granting the next waiter within the same instant, exactly as before),
// recycles the hold, and then calls the completion callback.
func holdExpire(x any) {
	h := x.(*hold)
	r := h.r
	r.Release()
	afn, arg, waited := h.afn, h.arg, h.waited
	h.afn, h.arg = nil, nil
	r.freeHolds = append(r.freeHolds, h)
	if afn != nil {
		afn(arg, waited)
	}
}
