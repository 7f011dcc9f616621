// Quickstart: build the paper's Fig. 1 three-service pipeline with
// wrapper-backed services on the simulated production grid, then execute
// it with and without the optimizations to see the speed-up.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// descriptorXML describes a generic image filter in the paper's Fig. 8
// format; each stage of the pipeline wraps one instance of it.
const descriptorXML = `<description>
<executable name="%s">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<input name="in" option="-i"><access type="GFN"/></input>
<output name="out" option="-o"><access type="GFN"/></output>
</executable>
</description>`

func main() {
	for _, opts := range []core.Options{
		{}, // NOP: workflow parallelism only
		{DataParallelism: true},
		{DataParallelism: true, ServiceParallelism: true},
		{DataParallelism: true, ServiceParallelism: true, JobGrouping: true},
	} {
		makespan, jobs := run(opts)
		fmt.Printf("%-9s makespan %-10v grid jobs %d\n", opts, makespan.Round(time.Second), jobs)
	}
}

// run executes the pipeline over 8 input images under the given options.
func run(opts core.Options) (time.Duration, int) {
	eng := sim.NewEngine()
	g := grid.New(eng, grid.DefaultConfig())

	// The input data: 8 images registered in the replica catalog.
	var inputs []string
	for i := 0; i < 8; i++ {
		gfn := fmt.Sprintf("gfn://images/img%d", i)
		g.Catalog().Register(gfn, 7.8)
		inputs = append(inputs, gfn)
	}

	// One wrapper service per pipeline stage, built from its executable
	// descriptor — the only thing a developer writes to grid-enable a code.
	wf := workflow.New("quickstart")
	wf.AddSource("images")
	for i, stage := range []struct {
		name    string
		runtime time.Duration
	}{
		{"denoise", 60 * time.Second},
		{"segment", 150 * time.Second},
		{"measure", 45 * time.Second},
	} {
		desc, err := descriptor.Parse([]byte(fmt.Sprintf(descriptorXML, stage.name)))
		if err != nil {
			log.Fatal(err)
		}
		svc, err := services.NewWrapper(g, desc, services.ConstantRuntime(stage.runtime),
			map[string]float64{"out": 7.8})
		if err != nil {
			log.Fatal(err)
		}
		wf.AddService(stage.name, svc, []string{"in"}, []string{"out"})
		if i == 0 {
			wf.Connect("images", "out", stage.name, "in")
		}
	}
	wf.Connect("denoise", "out", "segment", "in")
	wf.Connect("segment", "out", "measure", "in")
	wf.AddSink("results")
	wf.Connect("measure", "out", "results", "in")

	enactor, err := core.New(eng, wf, opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := enactor.Run(map[string][]string{"images": inputs})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Outputs["results"]) != len(inputs) {
		log.Fatalf("expected %d results, got %d", len(inputs), len(res.Outputs["results"]))
	}
	return res.Makespan, res.Trace.JobCount()
}
