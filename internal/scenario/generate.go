package scenario

import (
	"math"
	"sort"
	"time"

	"repro/internal/federation"
	"repro/internal/rng"
)

// Stream labels keep the compiler's rng forks stable: adding a generator
// must not reshuffle the draws of existing ones, so each consumer forks
// the root with its own label (plus a per-group or per-tenant index).
const (
	streamArrivals = 1 << 8
	streamSizes    = 2 << 8
	streamWaves    = 3 << 8
)

// Draw samples one file size from the distribution. Draws are clamped
// to MaxMB when set and never return below a hundredth of a megabyte
// (catalog entries of size zero would make transfer-time accounting
// degenerate).
func (sz SizeSpec) Draw(r *rng.Source) float64 {
	var v float64
	switch sz.Kind {
	case "constant":
		v = sz.MeanMB
	case "lognormal":
		v = r.LogNormalMeanSD(sz.MeanMB, sz.SDMB)
	case "pareto":
		// Inverse-CDF sampling: F(x) = 1 - (xm/x)^alpha, so
		// x = xm (1-u)^(-1/alpha) with u uniform in [0,1).
		v = sz.MinMB * math.Pow(1-r.Float64(), -1/sz.Alpha)
	}
	if sz.MaxMB > 0 && v > sz.MaxMB {
		v = sz.MaxMB
	}
	if v < 0.01 {
		v = 0.01
	}
	return v
}

// Quantile returns the distribution's analytic p-quantile (p in (0,1)),
// ignoring the MaxMB cap — the reference value the statistical property
// tests compare empirical draws against.
//
//moteur:keep analytic oracle the size-distribution tests compare sampled draws against
func (sz SizeSpec) Quantile(p float64) float64 {
	switch sz.Kind {
	case "constant":
		return sz.MeanMB
	case "lognormal":
		v := sz.SDMB * sz.SDMB / (sz.MeanMB * sz.MeanMB)
		sigma2 := math.Log(1 + v)
		mu := math.Log(sz.MeanMB) - sigma2/2
		return math.Exp(mu + math.Sqrt(sigma2)*normalQuantile(p))
	case "pareto":
		return sz.MinMB * math.Pow(1-p, -1/sz.Alpha)
	}
	return 0
}

// normalQuantile is the standard normal inverse CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9 — far below the tolerance of
// any statistical test using it).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("scenario: normalQuantile needs p in (0, 1)")
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// Times generates n arrival offsets from the process, sorted ascending.
// The staggered kind is purely deterministic; the stochastic kinds draw
// from r, so a fixed seed reproduces the exact schedule.
func (a ArrivalSpec) Times(r *rng.Source, n int) []time.Duration {
	out := make([]time.Duration, n)
	start := a.Start.D()
	switch a.Kind {
	case "staggered":
		for i := range out {
			out[i] = start + time.Duration(i)*a.Spread.D()
		}
	case "poisson":
		t := start
		for i := range out {
			t += time.Duration(r.Exponential(float64(a.MeanIAT.D())))
			out[i] = t
		}
	case "bursty":
		t := start
		for i := 0; i < n; {
			// One burst lands together, jittered within BurstSpread so the
			// serialized UI sees near-simultaneous arrivals, then the next
			// burst follows after an exponential gap.
			for j := 0; j < a.Burst && i < n; j, i = j+1, i+1 {
				jitter := time.Duration(0)
				if a.BurstSpread > 0 {
					jitter = time.Duration(r.Float64() * float64(a.BurstSpread.D()))
				}
				out[i] = t + jitter
			}
			t += time.Duration(r.Exponential(float64(a.MeanIAT.D())))
		}
	case "diurnal":
		// Thinning over the sinusoidal rate λ(t) = λ0 (1 + Peak sin(2πt/P)):
		// candidates arrive at the peak rate λmax = λ0 (1 + Peak) and are
		// accepted with probability λ(t)/λmax.
		period := a.Period.D()
		if period <= 0 {
			period = 24 * time.Hour
		}
		lambda0 := 1 / float64(a.MeanIAT.D())
		lambdaMax := lambda0 * (1 + a.Peak)
		t := start
		for i := 0; i < n; {
			t += time.Duration(r.Exponential(1 / lambdaMax))
			phase := 2 * math.Pi * float64(t) / float64(period)
			rate := lambda0 * (1 + a.Peak*math.Sin(phase))
			if r.Float64() < rate/lambdaMax {
				out[i] = t
				i++
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FailureWaves generates the spec's correlated outage schedule over the
// named member grids: wave k breaks at FirstAt + k×Spacing and takes
// ceil(Fraction×len(grids)) grids (a fresh random subset per wave) dark
// for log-normally distributed windows. The schedule respects the
// federation's per-grid overlap rule by construction — a grid whose
// previous window is still open when a wave breaks sits that wave out —
// so the generated outages always pass federation.New validation.
func (w WavesSpec) FailureWaves(r *rng.Source, grids []string) []federation.Outage {
	var out []federation.Outage
	hit := int(math.Ceil(w.Fraction * float64(len(grids))))
	if hit < 1 {
		hit = 1
	}
	if hit > len(grids) {
		hit = len(grids)
	}
	recovered := make([]time.Duration, len(grids))
	for k := 0; k < w.Waves; k++ {
		at := w.FirstAt.D() + time.Duration(k)*w.Spacing.D()
		perm := r.Perm(len(grids))
		for _, gi := range perm[:hit] {
			dur := w.Duration.D()
			if w.DurationSD > 0 {
				dur = time.Duration(r.LogNormalMeanSD(float64(w.Duration.D()), float64(w.DurationSD.D())))
			}
			if dur < time.Second {
				dur = time.Second
			}
			if at < recovered[gi] {
				// The grid's previous window is still open: starting another
				// would violate the non-overlap rule, so this grid rides the
				// wave out. Its random draws above are still consumed, which
				// keeps the remaining schedule independent of the skip.
				continue
			}
			recovered[gi] = at + dur
			out = append(out, federation.Outage{Grid: grids[gi], At: at, For: dur, Storage: w.Storage})
		}
	}
	return out
}
