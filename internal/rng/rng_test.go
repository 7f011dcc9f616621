package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical draws out of 100", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked children with different labels produced equal first draws")
	}
	// Forking is deterministic given the parent's state history; fresh
	// children from an identically seeded parent replay the same streams.
	p2 := New(7)
	d1 := p2.Fork(1)
	d2 := p2.Fork(2)
	d1.Uint64() // c1 consumed one draw above; align d1 with it
	d2.Uint64()
	if c1.Uint64() != d1.Uint64() {
		t.Fatal("fork not reproducible")
	}
	if c2.Uint64() != d2.Uint64() {
		t.Fatal("second fork not reproducible")
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	w := r.Uint64()
	if v == 0 && w == 0 {
		t.Fatal("seed 0 produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7): value %d drawn %d times out of 70000, want ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2.5, 3.5)
		if v < 2.5 || v >= 3.5 {
			t.Fatalf("Uniform(2.5,3.5) out of range: %g", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(7)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) empirical rate %g", rate)
	}
}

func sampleMoments(n int, draw func() float64) (mean, sd float64) {
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sum2 += v * v
	}
	mean = sum / float64(n)
	sd = math.Sqrt(sum2/float64(n) - mean*mean)
	return mean, sd
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	mean, sd := sampleMoments(200000, func() float64 { return r.Normal(10, 3) })
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %g, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Errorf("Normal sd = %g, want ~3", sd)
	}
}

func TestLogNormalMeanSDMoments(t *testing.T) {
	r := New(9)
	mean, sd := sampleMoments(400000, func() float64 { return r.LogNormalMeanSD(150, 75) })
	if math.Abs(mean-150) > 2 {
		t.Errorf("LogNormalMeanSD mean = %g, want ~150", mean)
	}
	if math.Abs(sd-75) > 3 {
		t.Errorf("LogNormalMeanSD sd = %g, want ~75", sd)
	}
}

func TestLogNormalMeanSDDegenerate(t *testing.T) {
	r := New(10)
	if v := r.LogNormalMeanSD(42, 0); v != 42 {
		t.Fatalf("LogNormalMeanSD with sd=0 = %g, want 42", v)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormalMeanSD(1, 5); v <= 0 {
			t.Fatalf("log-normal produced non-positive value %g", v)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(12)
	mean, sd := sampleMoments(400000, func() float64 { return r.Exponential(20) })
	if math.Abs(mean-20) > 0.3 {
		t.Errorf("Exponential mean = %g, want ~20", mean)
	}
	if math.Abs(sd-20) > 0.5 {
		t.Errorf("Exponential sd = %g, want ~20", sd)
	}
}

func TestExponentialNonNegative(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		if v := r.Exponential(5); v < 0 {
			t.Fatalf("Exponential produced negative value %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(16)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermEmpty(t *testing.T) {
	if p := New(1).Perm(0); len(p) != 0 {
		t.Fatalf("Perm(0) = %v, want empty", p)
	}
}

// Property: Intn(n) always lies in [0,n) for any positive n.
func TestQuickIntnInRange(t *testing.T) {
	r := New(17)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds yield identical k-th draws for any k.
func TestQuickDeterministicK(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		a, b := New(seed), New(seed)
		var va, vb uint64
		for i := 0; i <= int(k); i++ {
			va, vb = a.Uint64(), b.Uint64()
		}
		return va == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LogNormalMeanSD output is always strictly positive.
func TestQuickLogNormalPositive(t *testing.T) {
	r := New(18)
	f := func(m, s uint16) bool {
		mean := float64(m%500) + 1
		sd := float64(s % 500)
		return r.LogNormalMeanSD(mean, sd) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkLogNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.LogNormalMeanSD(150, 75)
	}
}
