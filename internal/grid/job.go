package grid

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/sim"
)

// jobRun is the pooled lifecycle context of one job: everything the
// submission → broker → queue → stage-in → compute → settle chain needs
// to carry between events. The chain advances through package-level
// functions dispatched with Engine.ScheduleArg / Resource.AcquireArg, so
// a job's whole lifecycle schedules without allocating closures; the run
// itself is arena-allocated and recycled at settlement, and its StagePlan
// scratch (including the remote legs' backing arrays) is reused across
// re-staging rounds, attempts, and — once recycled — other jobs.
type jobRun struct {
	g   *Grid
	c   *cluster // cluster of the current attempt
	rec *JobRecord
	// done is the caller's completion callback, invoked exactly once at
	// the terminal settlement.
	done func(*JobRecord)
	// tries counts the re-staging rounds already failed by the current
	// attempt (reset at each stage-in).
	tries int
	// leg indexes the next remote leg of the contended stage-in walk.
	leg int
	// plan is the owned stage-plan scratch of the current attempt.
	plan StagePlan
}

// newRun returns a recycled (or arena-fresh) jobRun bound to this grid.
func (g *Grid) newRun(rec *JobRecord, done func(*JobRecord)) *jobRun {
	var run *jobRun
	if n := len(g.freeRuns); n > 0 {
		run = g.freeRuns[n-1]
		g.freeRuns[n-1] = nil
		g.freeRuns = g.freeRuns[:n-1]
	} else {
		run = g.runs.New()
		run.g = g
	}
	run.rec, run.done = rec, done
	return run
}

// putRun recycles a settled run: callback and record references are
// dropped (so completed jobs are not retained by the pool), while the
// stage-plan backing arrays stay for the next job.
func (g *Grid) putRun(run *jobRun) {
	run.c, run.rec, run.done = nil, nil, nil
	run.tries, run.leg = 0, 0
	g.freeRuns = append(g.freeRuns, run)
}

// FileDecl declares an output file a job will produce and register.
type FileDecl struct {
	Name   string
	SizeMB float64
}

// JobSpec describes a computing task: the composed command line, the files
// to stage in (by catalog name), the files it will produce, and its compute
// time on a reference-speed node.
type JobSpec struct {
	// Name tags the job for traces (e.g. "crestLines[3]").
	Name string
	// Command is the composed command line. The simulator does not execute
	// it; it is recorded for traces and inspected by tests, mirroring the
	// dynamically composed invocation of the paper's generic wrapper.
	Command string
	// Inputs are catalog names of files to transfer to the worker node
	// before computing. Unknown names fail the job permanently.
	Inputs []string
	// Outputs are files registered in the catalog on success.
	Outputs []FileDecl
	// Runtime is the compute time on a speed-1.0 node.
	Runtime time.Duration
}

// JobStatus is a job's lifecycle state.
type JobStatus int

// Job lifecycle states, in order of progression.
const (
	StatusSubmitted JobStatus = iota // handed to the UI
	StatusAccepted                   // UI forwarded to the broker
	StatusMatched                    // broker picked a computing element
	StatusQueued                     // waiting in the CE batch queue
	StatusRunning                    // on a worker node (staging or computing)
	StatusCompleted
	StatusFailed
)

var statusNames = [...]string{"submitted", "accepted", "matched", "queued", "running", "completed", "failed"}

// String returns the lifecycle state's lower-case name.
func (s JobStatus) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("JobStatus(%d)", int(s))
}

// JobRecord carries a job's identity and per-phase timestamps. Fields other
// than timestamps are set once; timestamps are filled as the job
// progresses. All times are virtual.
type JobRecord struct {
	ID int
	// Tenant names the submission handle the job came through (empty for
	// jobs submitted directly via Grid.Submit). Per-tenant statistics
	// filter the global record set on this tag.
	Tenant string
	// Grid names the grid the job was submitted to (Config.Name; empty
	// for an unnamed standalone grid). A federation's records carry the
	// member-grid name here, which is how outage scenarios verify that no
	// work was routed to a dark grid.
	Grid    string
	Spec    JobSpec
	Status  JobStatus
	Cluster string
	// Attempts counts submissions including resubmissions after failures.
	Attempts int
	// Restages counts re-staging rounds across all attempts: stage-in
	// retries forced by a replica source that was dark at leg start or
	// died mid-fetch (bounded per attempt by Config.StageRetries).
	Restages int

	Submitted sim.Time // Submit called
	Accepted  sim.Time // UI latency paid, forwarded to broker
	Matched   sim.Time // broker matched to a CE (last attempt)
	Started   sim.Time // worker node acquired (last attempt)
	InputDone sim.Time // input staging finished (last attempt)
	Completed sim.Time // terminal instant (success or final failure)

	// LocalInMB and RemoteInMB partition the input bytes of the last
	// attempt's stage-in by the chosen replicas' links: local bytes moved
	// over the executing cluster's close-SE link, remote bytes were
	// fetched over intra-grid/WAN links first.
	LocalInMB  float64
	RemoteInMB float64
	// RemoteFetch is the serialized non-local fetch time the last attempt
	// paid before its close-SE transfer (zero when every input was local).
	// It is the nominal (uncontended) cost: queueing on contended WAN
	// channels is accounted separately in WANWait, so the observed fetch
	// span is RemoteFetch + WANWait.
	RemoteFetch time.Duration
	// WANFetch is the cross-grid portion of RemoteFetch under a
	// contended fabric: the nominal time of the legs that actually
	// crossed grids (and hence held WAN channels). Intra-grid remote
	// legs are excluded — they never touch the channels — so
	// (WANFetch + WANWait) / WANFetch is the undiluted observed/nominal
	// stretch of the WAN itself. Zero without a fabric.
	WANFetch time.Duration
	// WANWait is the time the last attempt's cross-grid fetch legs spent
	// queued on contended WAN channels before being granted (zero
	// without a fabric, or when every input was local or intra-grid).
	WANWait time.Duration

	Err error
}

// Overhead returns the grid overhead of the job: everything between
// submission and the start of useful computation on the final attempt
// (submission + matchmaking + queuing + staging), as the paper defines it.
func (r *JobRecord) Overhead() time.Duration {
	return time.Duration(r.InputDone - r.Submitted)
}

// maxSubmitLoad caps the middleware saturation multiplier: a loaded UI and
// Resource Broker degrade, but past a point clients time out and back off
// rather than queueing indefinitely.
const maxSubmitLoad = 2.5

// ErrNoSuchFile reports a job input absent from the replica catalog.
var ErrNoSuchFile = errors.New("grid: input file not in replica catalog")

// ErrTooManyFailures reports a job that exhausted its resubmissions.
var ErrTooManyFailures = errors.New("grid: job failed after maximum retries")

// ErrGridDown reports a job attempt interrupted by a grid outage: the
// grid was dark (Grid.SetDown) when the attempt reached its next
// lifecycle transition. The failure is terminal on this grid — a dark
// grid cannot resubmit — but a federation re-brokers it elsewhere (the
// outage is local, unlike a shared-catalog ErrNoSuchFile).
var ErrGridDown = errors.New("grid: grid is down")

// ErrReplicaLost reports a job input whose every replica went dark (SE
// outage, grid outage) or was evicted, and stayed unreachable through
// the whole re-staging budget (Config.StageRetries rounds of backoff).
// The failure is terminal, and — unlike ErrGridDown — a federation must
// NOT re-broker it: the replica catalog is shared, so the data is just
// as lost from every other grid.
var ErrReplicaLost = errors.New("grid: every replica of an input is lost or unreachable")

// Submit enters a job into the grid under the default (anonymous) tenant.
// done is invoked exactly once, in virtual time, when the job reaches a
// terminal state. Resubmission after failure is transparent: done only
// sees the final outcome.
//
// Submit is asynchronous and returns the job's record immediately, so
// callers can observe progress. To tag submissions for per-tenant
// accounting and fair-share scheduling, submit through a Tenant handle
// instead.
func (g *Grid) Submit(spec JobSpec, done func(*JobRecord)) *JobRecord {
	return g.Tenant("").Submit(spec, done)
}

// submitQueue is a FIFO of submissions waiting at the fair-share gate in
// front of the serialized UI, with O(1) pops: a head index advances
// instead of re-slicing, and the buffer compacts once the dead prefix
// dominates (the same shape as core's tupleQueue). Popped slots are
// zeroed so completed jobs' callbacks are not retained.
type submitQueue struct {
	buf  []*jobRun
	head int
}

func (q *submitQueue) len() int { return len(q.buf) - q.head }

func (q *submitQueue) push(run *jobRun) { q.buf = append(q.buf, run) }

func (q *submitQueue) peek() *jobRun { return q.buf[q.head] }

func (q *submitQueue) pop() *jobRun {
	run := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return run
}

func (g *Grid) submit(t *Tenant, spec JobSpec, done func(*JobRecord)) *JobRecord {
	if done == nil {
		panic("grid: Submit with nil completion callback")
	}
	rec := g.recs.New()
	*rec = JobRecord{
		ID:        g.nextID,
		Tenant:    t.name,
		Grid:      g.cfg.Name,
		Spec:      spec,
		Status:    StatusSubmitted,
		Submitted: g.Eng.Now(),
	}
	g.nextID++
	g.records = append(g.records, rec)
	t.records = append(t.records, rec)
	if t.slot < 0 {
		// First submission ever from this tenant: join the round-robin
		// ring. A drained tenant keeps its slot, so the ring has no
		// duplicates.
		t.slot, t.weight = len(g.subRing), max(g.cfg.TenantWeights[t.name], 1)
		g.subRing = append(g.subRing, t)
		if t.slot%64 == 0 {
			g.subActive = append(g.subActive, 0)
		}
	}
	if t.queue.len() == 0 {
		g.subActive[t.slot/64] |= 1 << (t.slot % 64)
	}
	t.queue.push(g.newRun(rec, done))
	g.subPending++
	g.pumpSubmits()
	return rec
}

// firstActive returns the first ring slot at or after from whose tenant
// has a pending submission, or -1 when there is none.
func (g *Grid) firstActive(from int) int {
	for w := from / 64; w < len(g.subActive); w++ {
		word := g.subActive[w]
		if w == from/64 {
			word &= ^uint64(0) << (from % 64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// pumpSubmits starts the next submission on the serialized UI. The gate
// drains the per-tenant queues round-robin (fair share): a burst-submitting
// tenant occupies only its own queue, so the other tenants' submissions
// keep interleaving one-for-one instead of waiting behind the whole burst.
// A tenant with a Config.TenantWeights weight k > 1 is drained up to k
// submissions per round before the gate advances, so higher-priority
// tenants clear the UI proportionally more often under contention (with
// weight 1 everywhere the drain order is the historical one exactly).
// With a single tenant the gate degenerates to the plain FIFO of a
// tenancy-unaware UI; Config.StrictFIFOSubmit restores that global FIFO
// even across tenants, for fairness comparisons.
//
// Only ring slots with a pending submission are visited: subActive holds
// one bit per slot, set when the slot's queue turns non-empty and cleared
// when it drains, so the pick costs O(ring/64) word tests however many
// tenants have gone idle.
func (g *Grid) pumpSubmits() {
	if g.uiBusy {
		return
	}
	pick := -1 // ring slot of the tenant to serve
	if g.cfg.StrictFIFOSubmit {
		bestID := -1
		for i := g.firstActive(0); i >= 0; i = g.firstActive(i + 1) {
			if id := g.subRing[i].queue.peek().rec.ID; bestID < 0 || id < bestID {
				bestID, pick = id, i
			}
		}
	} else if pick = g.firstActive(g.subRR); pick < 0 {
		pick = g.firstActive(0) // wrap around the ring
	}
	if pick < 0 {
		return
	}
	t := g.subRing[pick]
	run := t.queue.pop()
	if t.queue.len() == 0 {
		g.subActive[pick/64] &^= 1 << (pick % 64)
	}
	if !g.cfg.StrictFIFOSubmit {
		if pick != g.subRR {
			// The ring moved past empty queues: the served counter belongs
			// to the newly-current slot.
			g.subRR, g.subServed = pick, 0
		}
		g.subServed++
		if g.subServed >= t.weight {
			g.subRR = (pick + 1) % len(g.subRing)
			g.subServed = 0
		}
	}

	// One job at a time pays the submit latency, inflated by the
	// middleware's current load (submissions accepted but not yet paid).
	g.uiBusy = true
	d := g.drawLogNormal(g.cfg.Overheads.SubmitMean, g.cfg.Overheads.SubmitSD)
	if f := g.cfg.Overheads.SubmitLoadFactor; f > 0 {
		mult := 1 + f*float64(g.subPending-1)
		if mult > maxSubmitLoad {
			mult = maxSubmitLoad
		}
		d = time.Duration(float64(d) * mult)
	}
	g.Eng.ScheduleArg(d, uiLatencyPaid, run)
}

// uiLatencyPaid runs when a submission's serialized UI latency elapses:
// the UI either forwards the job to the broker or — dark — fails it.
func uiLatencyPaid(x any) {
	run := x.(*jobRun)
	g := run.g
	g.subPending--
	g.uiBusy = false
	if g.down {
		// The UI is dark: the submission times out after its latency
		// and fails terminally on this grid. It still counts as an
		// attempt — overhead statistics derive resubmission counts
		// from Attempts-1, which must never go negative.
		run.rec.Attempts++
		g.settle(run, true)
		g.pumpSubmits()
		return
	}
	run.rec.Status = StatusAccepted
	run.rec.Accepted = g.Eng.Now()
	g.match(run)
	g.pumpSubmits()
}

// PendingSubmits reports how many submissions have been accepted by the
// gate but have not yet cleared the UI (including the one in service) —
// the backlog driving the SubmitLoadFactor saturation multiplier.
func (g *Grid) PendingSubmits() int { return g.subPending }

// match sends the job through the Resource Broker and on to a cluster.
func (g *Grid) match(run *jobRun) {
	run.rec.Attempts++
	g.broker.AcquireArg(brokerGranted, run)
}

// brokerGranted runs when a Resource Broker slot is granted: the
// matchmaking latency starts.
func brokerGranted(x any) {
	run := x.(*jobRun)
	g := run.g
	g.Eng.ScheduleArg(g.drawLogNormal(g.cfg.Overheads.BrokerMean, g.cfg.Overheads.BrokerSD),
		brokerDone, run)
}

// brokerDone runs when matchmaking completes: the broker slot is
// released and the job is enqueued on the picked cluster (or fails, if
// the grid went dark meanwhile).
func brokerDone(x any) {
	run := x.(*jobRun)
	g := run.g
	g.broker.Release()
	if g.down {
		g.settle(run, true)
		return
	}
	c := g.pickCluster(run.rec.Spec.Inputs)
	run.rec.Status = StatusMatched
	run.rec.Matched = g.Eng.Now()
	run.rec.Cluster = c.cfg.Name
	run.c = c
	c.enqueue(run)
}

// settle finalizes an attempt: success completes the job, failure
// resubmits through the broker until retries run out. On a dark grid
// every settlement is a terminal ErrGridDown failure: a completed
// attempt's results are lost (its outputs are not registered) and a
// failed one cannot be locally resubmitted.
func (g *Grid) settle(run *jobRun, failed bool) {
	rec := run.rec
	if g.down {
		if rec.Err == nil {
			rec.Err = ErrGridDown
		}
		rec.Status = StatusFailed
		rec.Completed = g.Eng.Now()
		g.finish(run)
		return
	}
	if !failed && len(rec.Spec.Outputs) > 0 &&
		g.catalog.SiteDark(Site{Grid: g.cfg.Name, Cluster: rec.Cluster}) {
		// The close SE that would receive the outputs is dark (SE-only
		// outage; a full outage was caught above): the attempt's results
		// cannot be registered. Fail retryably — resubmission re-runs the
		// job, possibly on a cluster whose storage is up.
		failed = true
	}
	if !failed {
		rec.Status = StatusCompleted
		rec.Completed = g.Eng.Now()
		// Outputs become replicas at the site that produced them: the
		// cluster whose close SE received the output staging. This is how
		// locality propagates through a workflow — a downstream job
		// brokered to the same place stages for free, one brokered across
		// the WAN pays the link.
		site := Site{Grid: g.cfg.Name, Cluster: rec.Cluster}
		for _, out := range rec.Spec.Outputs {
			g.catalog.RegisterAt(out.Name, out.SizeMB, site)
		}
		g.finish(run)
		return
	}
	if rec.Err == nil && rec.Attempts >= g.cfg.Failures.MaxRetries {
		rec.Err = ErrTooManyFailures
	}
	if rec.Err != nil {
		rec.Status = StatusFailed
		rec.Completed = g.Eng.Now()
		g.finish(run)
		return
	}
	// Transparent resubmission, as the generic wrapper performs it.
	g.match(run)
}

// finish delivers the terminal settlement: the run is recycled first (it
// carries nothing the callback needs beyond the record), then the
// caller's completion callback fires exactly once.
func (g *Grid) finish(run *jobRun) {
	rec, done := run.rec, run.done
	g.putRun(run)
	done(rec)
}

// pickCluster ranks computing elements the way the LCG2 broker does: by
// estimated time to drain their queue, with matchmaking noise (the
// broker's view of queue states is stale in production), plus the
// data-proximity term — the matchmaker prefers, all else equal, a cluster
// whose close SE already holds the job's input replicas. The proximity
// estimates are skipped entirely (not just zero-weighted) when the weight
// is zero, the job has no inputs, or the catalog's link model is the
// all-local one (a standalone grid's default), so the location-blind
// configuration pays nothing for the feature on this hot path.
func (g *Grid) pickCluster(inputs []string) *cluster {
	proximity := g.cfg.DataProximityWeight > 0 && len(inputs) > 0 && !g.catalog.AllLocal()
	best := g.clusters[0]
	fetch := 0.0
	if proximity {
		fetch = best.fetchEstimate(inputs)
	}
	bestRank := best.rank(g.rnd.Uniform(0.7, 1.3), fetch)
	for _, c := range g.clusters[1:] {
		fetch = 0
		if proximity {
			fetch = c.fetchEstimate(inputs)
		}
		if r := c.rank(g.rnd.Uniform(0.7, 1.3), fetch); r < bestRank {
			best, bestRank = c, r
		}
	}
	return best
}
