package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/iterstrat"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func echoTo(port string) func(services.Request) map[string]string {
	return func(req services.Request) map[string]string {
		for _, v := range req.Inputs {
			return map[string]string{port: v}
		}
		return map[string]string{}
	}
}

// A single input port fed by two producers: the streams merge (the paper
// allows this — it is what makes loops expressible).
func TestMergedStreamsIntoOnePort(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("merge")
	w.AddSource("s1")
	w.AddSource("s2")
	a := services.NewLocal(eng, "A", 64, services.ConstantRuntime(time.Second), echoTo("out"))
	bSvc := services.NewLocal(eng, "B", 64, services.ConstantRuntime(time.Second), echoTo("out"))
	sinkward := services.NewLocal(eng, "C", 64, services.ConstantRuntime(time.Second), echoTo("out"))
	w.AddService("A", a, []string{"in"}, []string{"out"})
	w.AddService("B", bSvc, []string{"in"}, []string{"out"})
	w.AddService("C", sinkward, []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("s1", workflow.SourcePort, "A", "in")
	w.Connect("s2", workflow.SourcePort, "B", "in")
	w.Connect("A", "out", "C", "in") // both A and B feed C:in
	w.Connect("B", "out", "C", "in")
	w.Connect("C", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"s1": {"x1", "x2"}, "s2": {"y1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Outputs["sink"]); got != 3 {
		t.Fatalf("sink received %d items, want 3 (2 from A + 1 from B)", got)
	}
	if got := len(res.Trace.ByProcessor("C")); got != 3 {
		t.Fatalf("C ran %d times, want 3", got)
	}
}

// A cross product inside the enactor: n×m invocations, results indexed in
// two dimensions.
func TestCrossProductThroughEnactor(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("cross")
	pair := services.NewLocal(eng, "pair", 64, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["x"] + "*" + req.Inputs["y"]}
		})
	w.AddSource("a")
	w.AddSource("b")
	p := w.AddService("pair", pair, []string{"x", "y"}, []string{"out"})
	p.Strategy = iterstrat.Cross(iterstrat.Port("x"), iterstrat.Port("y"))
	w.AddSink("sink")
	w.Connect("a", workflow.SourcePort, "pair", "x")
	w.Connect("b", workflow.SourcePort, "pair", "y")
	w.Connect("pair", "out", "sink", workflow.SinkPort)

	for _, opts := range []Options{
		{DataParallelism: true, ServiceParallelism: true},
		{}, // barrier mode must agree on the result set
	} {
		e, err := New(eng, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(map[string][]string{"a": {"a0", "a1", "a2"}, "b": {"b0", "b1"}})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Outputs["sink"]); got != 6 {
			t.Fatalf("%s: cross emitted %d results, want 6", opts, got)
		}
		seen := make(map[string]bool)
		for _, v := range res.Outputs["sink"] {
			seen[v] = true
		}
		for _, want := range []string{"a0*b0", "a2*b1"} {
			if !seen[want] {
				t.Fatalf("%s: missing combination %s in %v", opts, want, res.Outputs["sink"])
			}
		}
	}
}

func TestWideFanOut(t *testing.T) {
	// One producer feeding 10 consumers: workflow parallelism runs all
	// branches concurrently.
	eng := sim.NewEngine()
	w := workflow.New("fan")
	w.AddSource("src")
	root := services.NewLocal(eng, "root", 64, services.ConstantRuntime(time.Second), echoTo("out"))
	w.AddService("root", root, []string{"in"}, []string{"out"})
	w.Connect("src", workflow.SourcePort, "root", "in")
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("leaf%d", i)
		svc := services.NewLocal(eng, name, 64, services.ConstantRuntime(10*time.Second), echoTo("out"))
		w.AddService(name, svc, []string{"in"}, []string{"out"})
		w.AddSink("sink" + name)
		w.Connect("root", "out", name, "in")
		w.Connect(name, "out", "sink"+name, workflow.SinkPort)
	}
	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"d"}})
	if err != nil {
		t.Fatal(err)
	}
	// 1s root + 10s leaves in parallel.
	if res.Makespan != 11*time.Second {
		t.Fatalf("makespan = %v, want 11s (branches must run in parallel)", res.Makespan)
	}
}

func TestDeepChain(t *testing.T) {
	const depth = 25
	T := constT(depth, 2, time.Second)
	res := runChain(t, T, Options{DataParallelism: true, ServiceParallelism: true})
	if res.Makespan != depth*time.Second {
		t.Fatalf("deep chain makespan = %v, want %v", res.Makespan, depth*time.Second)
	}
	items := res.Items["sink"]
	if d := items[0].History.Depth(); d != depth+1 {
		t.Fatalf("history depth = %d, want %d", d, depth+1)
	}
}

func TestSourceDirectlyToSink(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("pass")
	w.AddSource("src")
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "sink", workflow.SinkPort)
	e, err := New(eng, w, Options{ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Fatalf("pass-through makespan = %v, want 0", res.Makespan)
	}
	if got := res.Outputs["sink"]; len(got) != 2 || got[0] != "a" {
		t.Fatalf("sink = %v", got)
	}
}

func TestEmptyInputSet(t *testing.T) {
	eng := sim.NewEngine()
	wf := localChain(eng, constT(2, 1, time.Second))
	e, err := New(eng, wf, Options{ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || len(res.Outputs["sink"]) != 0 {
		t.Fatalf("empty input produced %v in %v", res.Outputs, res.Makespan)
	}
}

func TestSyncWithMultiplePorts(t *testing.T) {
	// A sync processor collecting two ports of different cardinalities.
	eng := sim.NewEngine()
	w := workflow.New("sync2port")
	var gotA, gotB int
	sync := services.NewLocal(eng, "stat", 64, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			gotA, gotB = len(req.Lists["a"]), len(req.Lists["b"])
			return map[string]string{"out": "done"}
		})
	w.AddSource("s1")
	w.AddSource("s2")
	p := w.AddService("stat", sync, []string{"a", "b"}, []string{"out"})
	p.Synchronization = true
	w.AddSink("sink")
	w.Connect("s1", workflow.SourcePort, "stat", "a")
	w.Connect("s2", workflow.SourcePort, "stat", "b")
	w.Connect("stat", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(map[string][]string{"s1": {"x", "y", "z"}, "s2": {"q"}}); err != nil {
		t.Fatal(err)
	}
	if gotA != 3 || gotB != 1 {
		t.Fatalf("sync lists = %d/%d, want 3/1", gotA, gotB)
	}
}

func TestWorkflowAccessorAfterGrouping(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := wrapperChain(t, eng, g)
	e, err := New(eng, w, Options{JobGrouping: true, DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Workflow().Proc("A+B+C"); !ok {
		t.Fatal("Workflow() does not expose the grouped graph")
	}
	// The input workflow object is untouched.
	if _, ok := w.Proc("A"); !ok {
		t.Fatal("original workflow mutated")
	}
}

func TestTraceJobCountWithRetries(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quietConfig(8)
	cfg.Failures.Probability = 0.5
	cfg.Failures.DetectDelay = time.Second
	cfg.Failures.MaxRetries = 20
	cfg.Seed = 9
	g := grid.New(eng, cfg)
	g.Catalog().Register("gfn://x", 1)
	w := workflow.New("retry")
	w.AddSource("src")
	w.AddService("W", wrapperFor(t, g, "W", time.Second), []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "W", "in")
	w.Connect("W", "out", "sink", workflow.SinkPort)
	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"gfn://x", "gfn://x", "gfn://x", "gfn://x"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.JobCount() <= 4 {
		t.Fatalf("JobCount = %d, want > 4 with 50%% failures (resubmissions counted)", res.Trace.JobCount())
	}
}

func TestSummaryMentionsGroups(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	g.Catalog().Register("gfn://in0", 1)
	w := wrapperChain(t, eng, g)
	e, err := New(eng, w, Options{JobGrouping: true, DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"gfn://in0"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Summary(), "A+B+C") {
		t.Fatalf("summary missing grouped processor:\n%s", res.Summary())
	}
}
