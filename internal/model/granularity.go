package model

import "time"

// This file models the job-granularity trade-off the paper leaves as
// future work (Sec. 5.4–5.5): "we plan to address this problem by grouping
// jobs of a single service, thus finding a trade-off between data
// parallelism and the system's overhead" and "an optimal strategy to adapt
// the jobs' granularity to the grid load".
//
// Batching k invocations of one service into a single job divides the
// per-job overhead across k data items but serializes their computation,
// so the optimum depends on the overhead-to-runtime ratio and on how many
// jobs the infrastructure runs concurrently.

// GranularityParams describes a single-service batching scenario.
type GranularityParams struct {
	// Overhead is the mean per-job grid overhead (submission + matchmaking
	// + queuing + staging).
	Overhead time.Duration
	// SubmitSerial is the serialized per-job submission cost at the UI
	// (paid once per job, sequentially).
	SubmitSerial time.Duration
	// Runtime is the per-item compute time.
	Runtime time.Duration
	// Items is the number of data items to process.
	Items int
	// Slots is the number of jobs the grid effectively runs concurrently.
	Slots int
}

// BatchMakespan estimates the makespan of processing Items with batches of
// size k: jobs = ⌈Items/k⌉ submissions serialize at the UI, every job pays
// the overhead once, and jobs execute in ⌈jobs/Slots⌉ waves of k·Runtime.
func BatchMakespan(p GranularityParams, k int) time.Duration {
	if k < 1 {
		k = 1
	}
	if p.Items <= 0 {
		return 0
	}
	slots := p.Slots
	if slots < 1 {
		slots = 1
	}
	jobs := (p.Items + k - 1) / k
	waves := (jobs + slots - 1) / slots
	return time.Duration(jobs)*p.SubmitSerial + p.Overhead +
		time.Duration(waves)*time.Duration(k)*p.Runtime
}

// OptimalBatch returns the batch size in [1, Items] minimizing
// BatchMakespan, and the predicted makespan. Ties resolve to the smaller
// batch (more parallelism for equal cost).
func OptimalBatch(p GranularityParams) (k int, makespan time.Duration) {
	if p.Items <= 0 {
		return 1, 0
	}
	best, bestT := 1, BatchMakespan(p, 1)
	for k := 2; k <= p.Items; k++ {
		if t := BatchMakespan(p, k); t < bestT {
			best, bestT = k, t
		}
	}
	return best, bestT
}

// GranularitySweep returns the predicted makespan for every batch size in
// [1, Items] — the curve the ablation benchmarks trace empirically.
//
//moteur:keep the paper's job-granularity trade-off (Sec. 5.4-5.5) in closed form, checked by the model tests
func GranularitySweep(p GranularityParams) []time.Duration {
	if p.Items <= 0 {
		return nil
	}
	out := make([]time.Duration, p.Items)
	for k := 1; k <= p.Items; k++ {
		out[k-1] = BatchMakespan(p, k)
	}
	return out
}
