// Optimization loop (paper Fig. 2): a workflow with a cycle, legal only in
// the service-based approach. P3 publishes its result on one of two output
// ports depending on a convergence criterion computed at execution time:
// "again" feeds back into P2, "done" reaches the sink. The number of
// iterations is decided while the workflow runs — something a task-based
// DAG cannot express.
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func main() {
	eng := sim.NewEngine()

	// P1 initializes the optimization criterion for each input.
	p1 := services.NewLocal(eng, "P1", 64, services.ConstantRuntime(5*time.Second),
		func(req services.Request) map[string]string {
			return map[string]string{"init": req.Inputs["in"] + "/iter0/res1.000"}
		})
	// P2 refines the current estimate.
	p2 := services.NewLocal(eng, "P2", 64, services.ConstantRuntime(20*time.Second),
		func(req services.Request) map[string]string {
			return map[string]string{"est": req.Inputs["crit"]}
		})
	// P3 evaluates convergence: residual halves every iteration; below the
	// threshold it emits on "done", otherwise loops back on "again".
	p3 := services.NewLocal(eng, "P3", 64, services.ConstantRuntime(10*time.Second),
		func(req services.Request) map[string]string {
			base, iter, res := parse(req.Inputs["est"])
			res /= 2
			iter++
			state := fmt.Sprintf("%s/iter%d/res%.3f", base, iter, res)
			if res < 0.1 {
				return map[string]string{"done": state}
			}
			return map[string]string{"again": state}
		})

	wf := workflow.New("fig2-loop")
	wf.AddSource("Source")
	wf.AddService("P1", p1, []string{"in"}, []string{"init"})
	wf.AddService("P2", p2, []string{"crit"}, []string{"est"})
	wf.AddService("P3", p3, []string{"est"}, []string{"again", "done"})
	wf.AddSink("Sink")
	wf.Connect("Source", "out", "P1", "in")
	wf.Connect("P1", "init", "P2", "crit")
	wf.Connect("P2", "est", "P3", "est")
	wf.Connect("P3", "again", "P2", "crit") // the loop of Fig. 2
	wf.Connect("P3", "done", "Sink", "in")

	if !wf.HasCycle() {
		log.Fatal("expected a cyclic workflow")
	}

	// Loops require streaming execution (service parallelism).
	enactor, err := core.New(eng, wf, core.Options{
		DataParallelism:    true,
		ServiceParallelism: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := enactor.Run(map[string][]string{"Source": {"imageA", "imageB", "imageC"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loop workflow converged in %v:\n", res.Makespan)
	for _, v := range res.Outputs["Sink"] {
		fmt.Println(" ", v)
	}
	fmt.Printf("P2 ran %d times, P3 ran %d times (iteration count decided at runtime)\n",
		len(res.Trace.ByProcessor("P2")), len(res.Trace.ByProcessor("P3")))
}

func parse(state string) (base string, iter int, res float64) {
	parts := strings.Split(state, "/")
	base = parts[0]
	iter, _ = strconv.Atoi(strings.TrimPrefix(parts[1], "iter"))
	res, _ = strconv.ParseFloat(strings.TrimPrefix(parts[2], "res"), 64)
	return base, iter, res
}
