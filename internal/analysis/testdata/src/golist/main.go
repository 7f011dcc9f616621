// Command fixture reaches every declaration of the loader fixture, so
// only the planted per-package findings remain.
package main

import "fixture/internal/sim"

func main() {
	sim.Undocumented()
	println(sim.Total(map[string]int{"a": 1}))
}
