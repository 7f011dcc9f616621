package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p, v   float64
		ok     bool
		beyond int
	}{
		{n: 10000, p: 99.9, v: 9990, ok: true, beyond: 10},
		{n: 1000, p: 99, v: 990, ok: true, beyond: 10},
		{n: 999, p: 90, v: 900, ok: true, beyond: 99},
		{n: 100, p: 90, v: 90, ok: true, beyond: 10},
		{n: 20, p: 50, v: 10, ok: true, beyond: 10},
		{n: 15, p: 50, v: 8, ok: false, beyond: 7},
	} {
		p, v, n, ok := tail(seq(tc.n))
		if p != tc.p || v != tc.v || n != tc.n || ok != tc.ok {
			t.Errorf("tail(1..%d) = p%g %g n=%d ok=%v, want p%g %g n=%d ok=%v", tc.n, p, v, n, ok, tc.p, tc.v, tc.n, tc.ok)
		}
		if _, beyond := percentile(seq(tc.n), tc.p); beyond != tc.beyond {
			t.Errorf("percentile(1..%d, %g) leaves %d beyond, want %d", tc.n, tc.p, beyond, tc.beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	ops := []op{
		// On time: sent when due, 2 ms of service.
		{due: at(0), sent: at(0), reply: at(2), ok: true},
		// A stall made the generator 5 ms late; the server answered in
		// 1 ms, but the request is charged from its due instant.
		{due: at(1), sent: at(6), reply: at(7), ok: true},
		// Refused: misses every latency limit, has no service time.
		{due: at(2), sent: at(6.5), reply: at(8), ok: false},
	}
	a := account(ops)
	if a.failed != 1 {
		t.Errorf("failed = %d, want 1", a.failed)
	}
	wantLatency := []float64{2, 6, math.Inf(1)}
	wantLate := []float64{0, 4.5, 5}
	wantService := []float64{1, 2}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"latency", a.latency, wantLatency}, {"late", a.late, wantLate}, {"service", a.service, wantService}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
		for i := range c.got {
			if math.Abs(c.got[i]-c.want[i]) > 1e-9 && !(math.IsInf(c.got[i], 1) && math.IsInf(c.want[i], 1)) {
				t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				break
			}
		}
	}
	// With a third of the requests failed, the 99th percentile is a miss.
	if v, _ := percentile(a.latency, 99); !math.IsInf(v, 1) {
		t.Errorf("p99 latency = %g, want +Inf", v)
	}
}

func TestScheduleIsOpenLoopAtFixedRates(t *testing.T) {
	rs := schedule(time.Second)
	var subs, scrapes int
	for i, r := range rs {
		if i > 0 && r.due <= rs[i-1].due {
			t.Fatalf("request %d due at %v, not after %v", i, r.due, rs[i-1].due)
		}
		if r.scrape {
			scrapes++
		} else {
			subs++
		}
	}
	if subs != submitRate || scrapes != 1000/scrapeEvery {
		t.Errorf("one second holds %d submissions and %d scrapes, want %d and %d", subs, scrapes, submitRate, 1000/scrapeEvery)
	}
}

func TestCheckIDs(t *testing.T) {
	records := map[string]jobRef{
		"load-0": {"m0", 7}, "load-1": {"m1", 7}, "load-2": {"m0", 9}, "load-3": {"m0", 8},
	}
	good := [][]acceptance{{{"load-0", 7}, {"load-2", 9}}, {{"load-1", 7}, {"load-3", 8}}}
	if p := checkIDs(good, records); len(p) != 0 {
		t.Errorf("per-grid IDs flagged: %v", p)
	}
	bad := [][]acceptance{{{"load-2", 9}, {"load-3", 8}, {"load-1", 6}, {"load-9", 1}}}
	if p := checkIDs(bad, records); len(p) != 3 {
		t.Errorf("want a decrease, a wrong ID and an unknown job flagged, got %v", p)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestCheckPin(t *testing.T) {
	w := workloads["storage-churn"]
	want := *w.pinned
	if problem, pinned := w.checkPin(13, want); !pinned || problem != "" {
		t.Errorf("the pinned outcome itself: pinned=%v problem=%q", pinned, problem)
	}
	drifted := want
	drifted.Repairs++
	if problem, _ := w.checkPin(13, drifted); problem == "" {
		t.Error("a drifted repair count passed the pin")
	}
	if _, pinned := w.checkPin(14, want); pinned {
		t.Error("seed 14 has no pin, but checkPin applied one")
	}
}

func TestTracerSelfTimesPartitionTopLevelSpans(t *testing.T) {
	tr := newTracer(1)
	tr.begin(layerStep)
	tr.begin(layerDone)
	tr.begin(layerSubmit)
	tr.begin(layerLink)
	time.Sleep(time.Millisecond)
	tr.end()
	tr.end()
	tr.end()
	tr.end()
	tr.begin(layerReport)
	tr.begin(layerTenantStats)
	tr.end()
	tr.end()
	if got, want := tr.selfSum(), tr.total[layerStep]+tr.total[layerReport]; got != want {
		t.Errorf("self times add up to %v, top-level spans cover %v", got, want)
	}
	if tr.self[layerSubmit] >= tr.total[layerSubmit] || tr.total[layerLink] < time.Millisecond {
		t.Errorf("submit self %v of total %v; link total %v", tr.self[layerSubmit], tr.total[layerSubmit], tr.total[layerLink])
	}
	// Link calls are counted but not stored: the submit span's parent is
	// the done span, the done span's the step span.
	if len(tr.spans) != 5 || tr.spans[2].Layer != layerSubmit || tr.spans[2].Parent != 1 || tr.spans[1].Parent != 0 {
		t.Errorf("spans = %+v", tr.spans)
	}
}
