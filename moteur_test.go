package moteur

import (
	"fmt"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd drives the whole stack through the public façade:
// grid, descriptors, wrappers, workflow, enactor, results.
func TestPublicAPIEndToEnd(t *testing.T) {
	eng := NewEngine()
	g := NewGrid(eng, IdealGridConfig(64))

	desc, err := ParseDescriptor([]byte(`<description>
<executable name="filter">
<access type="URL"><path value="http://example.org"/></access>
<input name="in" option="-i"><access type="GFN"/></input>
<output name="out" option="-o"><access type="GFN"/></output>
</executable>
</description>`))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewWrapper(g, desc, ConstantRuntime(30*time.Second), map[string]float64{"out": 1})
	if err != nil {
		t.Fatal(err)
	}

	wf := NewWorkflow("api")
	wf.AddSource("in")
	wf.AddService("filter", svc, []string{"in"}, []string{"out"})
	wf.AddSink("out")
	wf.Connect("in", "out", "filter", "in")
	wf.Connect("filter", "out", "out", "in")

	var inputs []string
	for i := 0; i < 5; i++ {
		gfn := fmt.Sprintf("gfn://d%d", i)
		g.Catalog().Register(gfn, 1)
		inputs = append(inputs, gfn)
	}

	e, err := NewEnactor(eng, wf, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"in": inputs})
	if err != nil {
		t.Fatal(err)
	}
	// Ideal grid, full parallelism: makespan = one service time.
	if res.Makespan != 30*time.Second {
		t.Fatalf("makespan = %v, want 30s", res.Makespan)
	}
	if len(res.Outputs["out"]) != 5 {
		t.Fatalf("outputs = %v", res.Outputs["out"])
	}
}

// TestPublicAPIModelAndMetrics exercises the analytical surface.
func TestPublicAPIModelAndMetrics(t *testing.T) {
	m := Matrix{
		{10 * time.Second, 20 * time.Second},
		{30 * time.Second, 40 * time.Second},
	}
	if ModelSequential(m) != 100*time.Second {
		t.Errorf("Sequential = %v", ModelSequential(m))
	}
	if ModelDP(m) != 60*time.Second {
		t.Errorf("DP = %v", ModelDP(m))
	}
	if ModelDSP(m) != 60*time.Second {
		t.Errorf("DSP = %v", ModelDSP(m))
	}
	if ModelSP(m) != 80*time.Second {
		t.Errorf("SP = %v", ModelSP(m))
	}
	line, err := Fit([]int{1, 2, 3}, []time.Duration{3 * time.Second, 5 * time.Second, 7 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if line.Slope != 2 || line.Intercept != 1 {
		t.Errorf("fit = %+v", line)
	}
	if SpeedUp(10*time.Second, 5*time.Second) != 2 {
		t.Error("SpeedUp broken")
	}
}

// TestPublicAPIStrategies checks the strategy constructors and parser.
func TestPublicAPIStrategies(t *testing.T) {
	s := Cross(Dot(Port("a"), Port("b")), Port("c"))
	if s.String() != "cross(dot(a,b),c)" {
		t.Errorf("String = %q", s.String())
	}
	parsed, err := ParseStrategy(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != s.String() {
		t.Error("round trip failed")
	}
}

// TestPublicAPIScufl parses a workflow document through the façade.
func TestPublicAPIScufl(t *testing.T) {
	eng := NewEngine()
	reg := ServiceRegistry{
		"step": NewLocal(eng, "step", 8, ConstantRuntime(time.Second),
			func(req Request) map[string]string {
				return map[string]string{"out": req.Inputs["in"]}
			}),
	}
	doc := `<scufl name="tiny">
  <source name="src"/>
  <processor name="step"><inport name="in"/><outport name="out"/></processor>
  <sink name="dst"/>
  <link from="src:out" to="step:in"/>
  <link from="step:out" to="dst:in"/>
</scufl>`
	wf, err := ParseScufl([]byte(doc), ScuflOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	out, err := WriteScufl(wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScufl(out, ScuflOptions{Registry: reg}); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	e, err := NewEnactor(eng, wf, Options{ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["dst"]) != 2 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

// TestPublicAPIAutoGroup verifies the grouping rewrite is reachable from
// the façade.
func TestPublicAPIAutoGroup(t *testing.T) {
	eng := NewEngine()
	g := NewGrid(eng, IdealGridConfig(8))
	mk := func(name string) Service {
		desc, err := ParseDescriptor([]byte(fmt.Sprintf(`<description>
<executable name=%q>
<access type="URL"><path value="http://x"/></access>
<input name="in" option="-i"><access type="GFN"/></input>
<output name="out" option="-o"><access type="GFN"/></output>
</executable></description>`, name)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWrapper(g, desc, ConstantRuntime(time.Second), map[string]float64{"out": 1})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wf := NewWorkflow("g")
	wf.AddSource("s")
	wf.AddService("A", mk("A"), []string{"in"}, []string{"out"})
	wf.AddService("B", mk("B"), []string{"in"}, []string{"out"})
	wf.AddSink("d")
	wf.Connect("s", "out", "A", "in")
	wf.Connect("A", "out", "B", "in")
	wf.Connect("B", "out", "d", "in")

	grouped, err := AutoGroup(wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grouped.Proc("A+B"); !ok {
		t.Fatal("A+B not grouped through public API")
	}
}

func TestPublicAPICampaign(t *testing.T) {
	gc := IdealGridConfig(32)
	gc.Overheads.SubmitMean = 2 * time.Second
	eng := NewEngine()
	x, err := StartCampaign(eng, CampaignOnGrid(NewGrid(eng, gc)), []CampaignTenant{
		{Name: "a", Opts: Options{DataParallelism: true, ServiceParallelism: true},
			Build: SyntheticChain(2, 4, 10*time.Second, 1)},
		{Name: "b", Arrival: time.Minute, Opts: Options{DataParallelism: true},
			Build: SyntheticChain(1, 6, 10*time.Second, 1)},
	}, CampaignAdmission{})
	if err != nil {
		t.Fatal(err)
	}
	rep := x.Run()
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(rep.Tenants))
	}
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
		if tr.Makespan <= 0 {
			t.Fatalf("tenant %s makespan %v", tr.Name, tr.Makespan)
		}
	}
	if rep.Global.Jobs != rep.Tenants[0].Overheads.Jobs+rep.Tenants[1].Overheads.Jobs {
		t.Fatal("per-tenant stats do not partition the global stats")
	}
}
