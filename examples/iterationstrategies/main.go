// Iteration strategies (paper Fig. 3): the composition rules for data
// arriving on the input ports of a service. A dot product pairs the i-th
// item of A with the i-th item of B (min(n,m) invocations — "a sequence of
// pairs"); a cross product pairs every item of A with every item of B (n×m
// invocations). Strategies compose into trees such as cross(dot(a,b),c),
// the pattern that makes task-based workflow descriptions combinatorial.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/iterstrat"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func main() {
	demo("dot(left,right)", "dot product (Fig. 3 right)")
	demo("cross(left,right)", "cross product (Fig. 3 left)")
	demo("cross(dot(left,right),param)", "composed: image pairs x parameter sweep")
}

func demo(strategy, label string) {
	eng := sim.NewEngine()

	pair := services.NewLocal(eng, "combine", 1024, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			out := req.Inputs["left"] + "+" + req.Inputs["right"]
			if p, ok := req.Inputs["param"]; ok {
				out += "@" + p
			}
			return map[string]string{"out": out}
		})

	strat, err := iterstrat.Parse(strategy)
	if err != nil {
		log.Fatal(err)
	}
	inPorts := strat.Ports()

	wf := workflow.New("strategies")
	wf.AddSource("A")
	wf.AddSource("B")
	if len(inPorts) == 3 {
		wf.AddSource("P")
	}
	p := wf.AddService("combine", pair, inPorts, []string{"out"})
	p.Strategy = strat
	wf.AddSink("results")
	wf.Connect("A", "out", "combine", "left")
	wf.Connect("B", "out", "combine", "right")
	if len(inPorts) == 3 {
		wf.Connect("P", "out", "combine", "param")
	}
	wf.Connect("combine", "out", "results", "in")

	enactor, err := core.New(eng, wf, core.Options{
		DataParallelism:    true,
		ServiceParallelism: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	inputs := map[string][]string{
		"A": {"A0", "A1", "A2"},
		"B": {"B0", "B1", "B2"},
	}
	if len(inPorts) == 3 {
		inputs["P"] = []string{"s=1.0", "s=2.0"}
	}
	res, err := enactor.Run(inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s — %s over A(3), B(3)", strategy, label)
	if len(inPorts) == 3 {
		fmt.Print(", P(2)")
	}
	fmt.Printf(": %d invocations\n", len(res.Outputs["results"]))
	for _, v := range res.Outputs["results"] {
		fmt.Println("  ", v)
	}
	fmt.Println()
}
