// Package metrics implements the analysis metrics of Sec. 5.1: the
// speed-up, and the y-intercept and slope of the linear regression of
// execution time against input data-set size.
//
// On a production grid the y-intercept measures the incompressible
// overhead of accessing the infrastructure (the time to process zero data
// sets), while the slope measures data scalability. The y-intercept ratio
// and slope ratio compare an optimized configuration against a reference
// one, attributing the improvement to overhead reduction or to scalability
// respectively.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Line is a fitted y = Intercept + Slope·x with its coefficient of
// determination.
type Line struct {
	// Intercept is the y-intercept in seconds (time for zero data sets).
	Intercept float64
	// Slope is in seconds per data set.
	Slope float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// String renders the fitted line the way the paper's figures caption it.
func (l Line) String() string {
	return fmt.Sprintf("y = %.0f s + %.1f s/dataset (R²=%.3f)", l.Intercept, l.Slope, l.R2)
}

// Fit computes the least-squares regression of times (as durations)
// against sizes. It needs at least two points with distinct x.
func Fit(sizes []int, times []time.Duration) (Line, error) {
	if len(sizes) != len(times) {
		return Line{}, fmt.Errorf("metrics: %d sizes but %d times", len(sizes), len(times))
	}
	if len(sizes) < 2 {
		return Line{}, fmt.Errorf("metrics: need at least 2 points, got %d", len(sizes))
	}
	n := float64(len(sizes))
	var sx, sy, sxx, sxy, syy float64
	for i := range sizes {
		x := float64(sizes[i])
		y := times[i].Seconds()
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Line{}, fmt.Errorf("metrics: all x values identical")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	// R² = 1 − SSres/SStot (1 when SStot is zero: a flat perfect fit).
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range sizes {
		x := float64(sizes[i])
		y := times[i].Seconds()
		d := y - (intercept + slope*x)
		ssRes += d * d
		ssTot += (y - meanY) * (y - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Line{Intercept: intercept, Slope: slope, R2: r2}, nil
}

// SpeedUp is the ratio of a reference execution time to the optimized one
// (Sec. 5.1: "the ratio of the execution time over the reference execution
// time" — values above 1 mean the optimization helps).
func SpeedUp(reference, optimized time.Duration) float64 {
	if optimized <= 0 {
		return math.Inf(1)
	}
	return float64(reference) / float64(optimized)
}

// YInterceptRatio compares the system overhead of two fitted lines: the
// reference's y-intercept over the analyzed configuration's. Above 1 means
// the analyzed configuration reduced the overhead.
func YInterceptRatio(reference, analyzed Line) float64 {
	if analyzed.Intercept == 0 {
		return math.Inf(1)
	}
	return reference.Intercept / analyzed.Intercept
}

// SlopeRatio compares the data scalability of two fitted lines: the
// reference's slope over the analyzed configuration's. Above 1 means the
// analyzed configuration scales better with the data set size.
func SlopeRatio(reference, analyzed Line) float64 {
	if analyzed.Slope == 0 {
		return math.Inf(1)
	}
	return reference.Slope / analyzed.Slope
}
