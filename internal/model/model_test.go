package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func randomMatrix(r *rng.Source, nW, nD int) Matrix {
	m := make(Matrix, nW)
	for i := range m {
		m[i] = make([]time.Duration, nD)
		for j := range m[i] {
			m[i][j] = time.Duration(r.Intn(50)+1) * time.Second
		}
	}
	return m
}

func TestConstantMatrixFormulas(t *testing.T) {
	const T = 7 * time.Second
	m := Constant(5, 12, T)
	if got, want := Sequential(m), 5*12*T; got != want {
		t.Errorf("Sequential = %v, want %v", got, want)
	}
	if got, want := DP(m), 5*T; got != want {
		t.Errorf("DP = %v, want %v", got, want)
	}
	if got, want := SP(m), (12+5-1)*T; got != want {
		t.Errorf("SP = %v, want %v", got, want)
	}
	if got, want := DSP(m), 5*T; got != want {
		t.Errorf("DSP = %v, want %v", got, want)
	}
}

// TestHeterogeneousMatrixFormulas pins equations 1-4 on a matrix whose
// rows and columns all differ, where the constant-time closed forms
// cannot mask an index mix-up: Σ = 100, DP sums the per-service maxima,
// SP is the critical path through the pipeline.
func TestHeterogeneousMatrixFormulas(t *testing.T) {
	m := Matrix{
		{10 * time.Second, 20 * time.Second},
		{30 * time.Second, 40 * time.Second},
	}
	if got := Sequential(m); got != 100*time.Second {
		t.Errorf("Sequential = %v, want 100s", got)
	}
	if got := DP(m); got != 60*time.Second {
		t.Errorf("DP = %v, want 60s", got)
	}
	if got := DSP(m); got != 60*time.Second {
		t.Errorf("DSP = %v, want 60s", got)
	}
	if got := SP(m); got != 80*time.Second {
		t.Errorf("SP = %v, want 80s", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Matrix{}).Validate(); err == nil {
		t.Error("empty matrix validated")
	}
	if err := (Matrix{{time.Second}, {time.Second, time.Second}}).Validate(); err == nil {
		t.Error("ragged matrix validated")
	}
	if err := Constant(2, 3, time.Second).Validate(); err != nil {
		t.Errorf("constant matrix rejected: %v", err)
	}
	m := Constant(3, 4, time.Second)
	if m.NW() != 3 || m.ND() != 4 {
		t.Errorf("NW/ND = %d/%d", m.NW(), m.ND())
	}
}

func TestSingleCellMatrix(t *testing.T) {
	m := Matrix{{42 * time.Second}}
	for name, f := range map[string]func(Matrix) time.Duration{
		"Sequential": Sequential, "DP": DP, "SP": SP, "DSP": DSP,
	} {
		if got := f(m); got != 42*time.Second {
			t.Errorf("%s(1x1) = %v, want 42s", name, got)
		}
	}
}

// Ordering invariants that hold for any matrix:
// DSP ≤ DP ≤ Sequential, DSP ≤ SP ≤ Sequential.
func TestQuickOrderings(t *testing.T) {
	f := func(seed uint64, wRaw, dRaw uint8) bool {
		r := rng.New(seed)
		nW, nD := int(wRaw%6)+1, int(dRaw%8)+1
		m := randomMatrix(r, nW, nD)
		seq, dp, sp, dsp := Sequential(m), DP(m), SP(m), DSP(m)
		return dsp <= dp && dp <= seq && dsp <= sp && sp <= seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// SP on a single-service path degenerates to Sequential; DP on a
// single-data-set path degenerates to Sequential.
func TestQuickDegenerateCases(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		r := rng.New(seed)
		nD := int(dRaw%10) + 1
		row := randomMatrix(r, 1, nD)
		if SP(row) != Sequential(row) {
			return false
		}
		col := randomMatrix(r, int(dRaw%5)+1, 1)
		return DP(col) == Sequential(col) && SP(col) == Sequential(col) && DSP(col) == Sequential(col)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConstantTimeSpeedups(t *testing.T) {
	s := ConstantTimeSpeedups(5, 126)
	if s.SDP != 126 {
		t.Errorf("SDP = %v, want nD = 126", s.SDP)
	}
	if want := 126.0 * 5 / (126 + 5 - 1); math.Abs(s.SSP-want) > 1e-9 {
		t.Errorf("SSP = %v, want %v", s.SSP, want)
	}
	if want := (126.0 + 5 - 1) / 5; math.Abs(s.SDSP-want) > 1e-9 {
		t.Errorf("SDSP = %v, want %v", s.SDSP, want)
	}
	if s.SSDP != 1 {
		t.Errorf("SSDP = %v, want 1 (constant-time hypothesis)", s.SSDP)
	}
}

// Speed-up formulas are consistent with the formulas on constant matrices.
func TestQuickSpeedupConsistency(t *testing.T) {
	f := func(wRaw, dRaw uint8) bool {
		nW, nD := int(wRaw%6)+1, int(dRaw%10)+1
		m := Constant(nW, nD, 10*time.Second)
		s := ConstantTimeSpeedups(nW, nD)
		seq, dp, sp, dsp := Sequential(m), DP(m), SP(m), DSP(m)
		ok := func(got float64, num, den time.Duration) bool {
			return math.Abs(got-float64(num)/float64(den)) < 1e-9
		}
		return ok(s.SDP, seq, dp) && ok(s.SSP, seq, sp) &&
			ok(s.SDSP, sp, dsp) && ok(s.SSDP, dp, dsp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// enactorMakespan runs the real enactor on an ideal substrate (Local
// services, no grid friction) over the matrix workload.
func enactorMakespan(t *testing.T, m Matrix, opts core.Options) time.Duration {
	t.Helper()
	eng := sim.NewEngine()
	w := workflow.New("model-check")
	w.AddSource("src")
	nW := m.NW()
	for i := 0; i < nW; i++ {
		i := i
		name := fmt.Sprintf("P%d", i)
		dur := func(req services.Request) time.Duration { return m[i][req.Index[0]] }
		echo := func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["in"]}
		}
		w.AddService(name, services.NewLocal(eng, name, 1<<20, dur, echo),
			[]string{"in"}, []string{"out"})
	}
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "P0", "in")
	for i := 1; i < nW; i++ {
		w.Connect(fmt.Sprintf("P%d", i-1), "out", fmt.Sprintf("P%d", i), "in")
	}
	w.Connect(fmt.Sprintf("P%d", nW-1), "out", "sink", workflow.SinkPort)

	e, err := core.New(eng, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]string, m.ND())
	for j := range inputs {
		inputs[j] = fmt.Sprintf("D%d", j)
	}
	res, err := e.Run(map[string][]string{"src": inputs})
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

// The central validation of Sec. 3.5.3: on a frictionless substrate, the
// enactor's measured makespans equal the model's closed forms EXACTLY, for
// arbitrary (not just constant) duration matrices and all four policies.
func TestQuickEnactorMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration property test")
	}
	f := func(seed uint64, wRaw, dRaw uint8) bool {
		r := rng.New(seed)
		nW, nD := int(wRaw%4)+1, int(dRaw%5)+1
		m := randomMatrix(r, nW, nD)
		cases := []struct {
			opts core.Options
			want time.Duration
		}{
			{core.Options{}, Sequential(m)},
			{core.Options{DataParallelism: true}, DP(m)},
			{core.Options{ServiceParallelism: true}, SP(m)},
			{core.Options{DataParallelism: true, ServiceParallelism: true}, DSP(m)},
		}
		for _, c := range cases {
			if got := enactorMakespan(t, m, c.opts); got != c.want {
				t.Logf("nW=%d nD=%d %s: enactor %v, model %v, matrix %v", nW, nD, c.opts, got, c.want, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSPFormula(b *testing.B) {
	r := rng.New(1)
	m := randomMatrix(r, 10, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SP(m)
	}
}
