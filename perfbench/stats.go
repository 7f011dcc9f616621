package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It sorts a copy; the caller's order stays.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads printed here match the acceptance computation.
// Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := max(1, min(m/4, n-1))
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLevels are the percentiles tail considers, highest last.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// percentile returns the nearest-rank p-th percentile of sorted (the
// smallest value with at least p% of the samples at or below it) and the
// number of samples strictly beyond that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps binary rounding of p/100·n (99.9% of 10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n - rank
}

// tail reports the highest percentile of sorted that has at least ten
// samples beyond it, with its value and the sample count. When even the
// median has fewer than ten samples beyond it, the median is returned
// with ok false: the tail is not resolved at that sample count.
func tail(sorted []float64) (p, v float64, n int, ok bool) {
	n = len(sorted)
	p = tailLevels[0]
	v, _ = percentile(sorted, p)
	for _, lvl := range tailLevels {
		x, beyond := percentile(sorted, lvl)
		if beyond < 10 {
			break
		}
		p, v, ok = lvl, x, true
	}
	return p, v, n, ok
}

// op is one request of an open-loop generator: when it was due by the
// schedule, when the generator actually sent it, and when its reply
// arrived. Failed requests (refused, non-2xx, timed out) have ok false.
type op struct {
	due, sent, reply time.Time
	ok               bool
}

// openLoop is the lateness accounting of an open-loop run, in
// milliseconds per request. Latency runs from the due instant, so a stall
// that delays later sends is charged to the requests it delayed; late is
// the generator's own lag (due to send) and service the server's share
// (send to reply). A failed request misses every latency limit: its
// latency is +Inf, and it has no service time.
type openLoop struct {
	latency, late, service []float64
	failed                 int
}

// account splits ops into the three per-request series, each sorted
// ascending for percentile reads.
func account(ops []op) openLoop {
	var a openLoop
	for _, o := range ops {
		a.late = append(a.late, ms(o.sent.Sub(o.due)))
		if !o.ok {
			a.failed++
			a.latency = append(a.latency, math.Inf(1))
			continue
		}
		a.latency = append(a.latency, ms(o.reply.Sub(o.due)))
		a.service = append(a.service, ms(o.reply.Sub(o.sent)))
	}
	sort.Float64s(a.latency)
	sort.Float64s(a.late)
	sort.Float64s(a.service)
	return a
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
