package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFitExactLine(t *testing.T) {
	// y = 100 + 5x, exactly.
	sizes := []int{12, 66, 126}
	times := make([]time.Duration, len(sizes))
	for i, x := range sizes {
		times[i] = time.Duration(100+5*x) * time.Second
	}
	l, err := Fit(sizes, times)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(l.Intercept, 100, 1e-9) || !approx(l.Slope, 5, 1e-9) {
		t.Fatalf("fit = %+v, want intercept 100 slope 5", l)
	}
	if !approx(l.R2, 1, 1e-12) {
		t.Fatalf("R² = %v, want 1 for an exact line", l.R2)
	}
}

// The paper's Table 2 derives from Table 1 by 3-point linear regression;
// reproduce the published NOP row from the published NOP times.
func TestFitPaperTable2NOPRow(t *testing.T) {
	sizes := []int{12, 66, 126}
	times := []time.Duration{32855 * time.Second, 76354 * time.Second, 133493 * time.Second}
	l, err := Fit(sizes, times)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: y-intercept 20784 s, slope 884 s/data set.
	if !approx(l.Intercept, 20784, 25) {
		t.Errorf("intercept = %.0f, paper reports 20784", l.Intercept)
	}
	if !approx(l.Slope, 884, 2) {
		t.Errorf("slope = %.1f, paper reports 884", l.Slope)
	}
}

func TestFitPaperTable2DPRow(t *testing.T) {
	sizes := []int{12, 66, 126}
	times := []time.Duration{17690 * time.Second, 26437 * time.Second, 34027 * time.Second}
	l, err := Fit(sizes, times)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: y-intercept 16328 s, slope 143 s/data set.
	if !approx(l.Intercept, 16328, 25) {
		t.Errorf("intercept = %.0f, paper reports 16328", l.Intercept)
	}
	if !approx(l.Slope, 143, 2) {
		t.Errorf("slope = %.1f, paper reports 143", l.Slope)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]int{1}, []time.Duration{time.Second}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Fit([]int{1, 2}, []time.Duration{time.Second}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit([]int{3, 3}, []time.Duration{time.Second, 2 * time.Second}); err == nil {
		t.Error("vertical line accepted")
	}
}

func TestFitFlatLine(t *testing.T) {
	l, err := Fit([]int{1, 2, 3}, []time.Duration{time.Minute, time.Minute, time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(l.Slope, 0, 1e-12) || !approx(l.Intercept, 60, 1e-9) {
		t.Fatalf("flat fit = %+v", l)
	}
	if l.R2 != 1 {
		t.Fatalf("flat-line R² = %v, want 1 by convention", l.R2)
	}
}

func TestSpeedUp(t *testing.T) {
	if got := SpeedUp(133493*time.Second, 14547*time.Second); !approx(got, 9.18, 0.01) {
		t.Errorf("paper headline speed-up = %.2f, want ≈9.18", got)
	}
	if got := SpeedUp(time.Minute, time.Minute); got != 1 {
		t.Errorf("equal speed-up = %v", got)
	}
	if !math.IsInf(SpeedUp(time.Second, 0), 1) {
		t.Error("zero optimized time should be +Inf")
	}
}

func TestRatios(t *testing.T) {
	ref := Line{Intercept: 20784, Slope: 884}
	dp := Line{Intercept: 16328, Slope: 143}
	// Paper Sec. 5.2: DP vs NOP has slope ratio 6.18 and y-intercept
	// ratio 1.27.
	if got := SlopeRatio(ref, dp); !approx(got, 6.18, 0.01) {
		t.Errorf("slope ratio = %.2f, paper reports 6.18", got)
	}
	if got := YInterceptRatio(ref, dp); !approx(got, 1.27, 0.01) {
		t.Errorf("y-intercept ratio = %.2f, paper reports 1.27", got)
	}
	if !math.IsInf(SlopeRatio(ref, Line{Slope: 0}), 1) {
		t.Error("zero slope should give +Inf ratio")
	}
	if !math.IsInf(YInterceptRatio(ref, Line{Intercept: 0}), 1) {
		t.Error("zero intercept should give +Inf ratio")
	}
}

func TestLineString(t *testing.T) {
	l := Line{Intercept: 100, Slope: 5.5, R2: 0.999}
	if got := l.String(); got != "y = 100 s + 5.5 s/dataset (R²=0.999)" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Fit recovers exact generating parameters from noiseless data.
func TestQuickFitRecoversParameters(t *testing.T) {
	f := func(seed uint64, iRaw, sRaw uint16) bool {
		r := rng.New(seed)
		intercept := float64(iRaw % 10000)
		slope := float64(sRaw%1000) + 1
		n := r.Intn(8) + 2
		sizes := make([]int, n)
		times := make([]time.Duration, n)
		for k := range sizes {
			sizes[k] = k*10 + r.Intn(5)
		}
		// ensure distinct x
		sizes[n-1] = sizes[n-2] + 7
		for k, x := range sizes {
			times[k] = time.Duration((intercept + slope*float64(x)) * float64(time.Second))
		}
		l, err := Fit(sizes, times)
		if err != nil {
			return false
		}
		return approx(l.Intercept, intercept, 1e-3) && approx(l.Slope, slope, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: speed-up of x over itself is 1; speed-up is anti-symmetric
// under swapping (product is 1).
func TestQuickSpeedUpSymmetry(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := time.Duration(aRaw%5000+1) * time.Second
		b := time.Duration(bRaw%5000+1) * time.Second
		return approx(SpeedUp(a, b)*SpeedUp(b, a), 1, 1e-9) && SpeedUp(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
