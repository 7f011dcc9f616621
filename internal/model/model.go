// Package model implements the theoretical execution-time model of
// Sec. 3.5: closed-form makespans of a workflow critical path of nW
// services over nD data sets with treatment durations T[i][j], under the
// four execution policies, plus the asymptotic speed-ups of Sec. 3.5.4.
//
// The model assumes (Sec. 3.5.2) a data-independent critical path,
// infrastructure-unconstrained data parallelism, and no synchronization
// processors; workflows with barriers are analyzed as the sequence of the
// sub-workflows on either side.
package model

import (
	"fmt"
	"time"
)

// Matrix is the treatment-duration matrix: T[i][j] is the duration of
// processing data set j by the i-th service of the critical path,
// including grid overhead (Sec. 3.5.1).
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
type Matrix [][]time.Duration

// Constant returns an nW×nD matrix with all entries t.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func Constant(nW, nD int, t time.Duration) Matrix {
	m := make(Matrix, nW)
	for i := range m {
		m[i] = make([]time.Duration, nD)
		for j := range m[i] {
			m[i][j] = t
		}
	}
	return m
}

// Validate checks the matrix is rectangular and non-empty.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func (m Matrix) Validate() error {
	if len(m) == 0 || len(m[0]) == 0 {
		return fmt.Errorf("model: empty matrix")
	}
	for i, row := range m {
		if len(row) != len(m[0]) {
			return fmt.Errorf("model: row %d has %d entries, want %d", i, len(row), len(m[0]))
		}
	}
	return nil
}

// NW returns the number of services on the critical path.
func (m Matrix) NW() int { return len(m) }

// ND returns the number of data sets.
func (m Matrix) ND() int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// Sequential is equation (1): Σ = Σi Σj Ti,j — no service or data
// parallelism.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func Sequential(m Matrix) time.Duration {
	var sum time.Duration
	for _, row := range m {
		for _, t := range row {
			sum += t
		}
	}
	return sum
}

// DP is equation (2): ΣDP = Σi maxj{Ti,j} — data parallelism only, with a
// synchronization of the whole data set between successive services.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func DP(m Matrix) time.Duration {
	var sum time.Duration
	for _, row := range m {
		max := time.Duration(0)
		for _, t := range row {
			if t > max {
				max = t
			}
		}
		sum += max
	}
	return sum
}

// SP is equation (3): ΣSP = T(nW−1, nD−1) + m(nW−1, nD−1), the pipelined
// makespan with one data set at a time per service, where
//
//	m(i,j) = max(T(i−1,j)+m(i−1,j), T(i,j−1)+m(i,j−1))
//	m(0,j) = Σk<j T(0,k);  m(i,0) = Σk<i T(k,0)
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func SP(m Matrix) time.Duration {
	nW, nD := m.NW(), m.ND()
	start := make([][]time.Duration, nW)
	for i := range start {
		start[i] = make([]time.Duration, nD)
	}
	for j := 1; j < nD; j++ {
		start[0][j] = start[0][j-1] + m[0][j-1]
	}
	for i := 1; i < nW; i++ {
		start[i][0] = start[i-1][0] + m[i-1][0]
	}
	for i := 1; i < nW; i++ {
		for j := 1; j < nD; j++ {
			a := m[i-1][j] + start[i-1][j]
			b := m[i][j-1] + start[i][j-1]
			if a > b {
				start[i][j] = a
			} else {
				start[i][j] = b
			}
		}
	}
	return m[nW-1][nD-1] + start[nW-1][nD-1]
}

// DSP is equation (4): ΣDSP = maxj{Σi Ti,j} — both data and service
// parallelism: each data set flows independently through the pipeline.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func DSP(m Matrix) time.Duration {
	nW, nD := m.NW(), m.ND()
	var max time.Duration
	for j := 0; j < nD; j++ {
		var sum time.Duration
		for i := 0; i < nW; i++ {
			sum += m[i][j]
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// Speedups are the asymptotic speed-ups of Sec. 3.5.4 under the
// constant-time hypothesis Ti,j = T.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
type Speedups struct {
	// SDP = Σ/ΣDP = nD: data parallelism with service parallelism disabled.
	SDP float64
	// SSP = Σ/ΣSP = nD·nW/(nD+nW−1): service parallelism with data
	// parallelism disabled.
	SSP float64
	// SDSP = ΣSP/ΣDSP = (nD+nW−1)/nW: data parallelism on top of service
	// parallelism.
	SDSP float64
	// SSDP = ΣDP/ΣDSP = 1: service parallelism on top of data parallelism
	// brings nothing under constant times — the hypothesis the production
	// measurements of Sec. 5.2 disprove.
	SSDP float64
}

// ConstantTimeSpeedups returns the closed-form speed-ups for nW services
// and nD data sets under constant treatment times.
//
//moteur:keep the paper's Sec. 3.5 execution-time model; the model tests and paper benchmarks check the enactor against it
func ConstantTimeSpeedups(nW, nD int) Speedups {
	w, d := float64(nW), float64(nD)
	return Speedups{
		SDP:  d,
		SSP:  d * w / (d + w - 1),
		SDSP: (d + w - 1) / w,
		SSDP: 1,
	}
}
