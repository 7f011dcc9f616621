package main

import (
	"fmt"

	"repro/internal/scenario"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// seed is the spec's own root seed: the default seed, and the one the
	// pins are recorded at.
	seed uint64
	// scenario is the spec file, relative to the repository root.
	scenario string
	// tenants and items override the spec's single tenant group (zero
	// keeps the spec's value).
	tenants, items int
	// seeds is how many consecutive seeds, starting at the run's seed,
	// the repetitions of one run cycle through. Each seed runs at least
	// twice, so every seed's fingerprint is checked against a second run.
	seeds int
	// daemon marks the served workload: moteurd under open-loop HTTP load
	// instead of a closed run.
	daemon bool
	// pinned is the outcome at seed, recorded at the commit that defined
	// the benchmark (nil for the served workload, whose outcome depends on
	// request timing).
	pinned *pin
}

// overrides is how a run's seed (and the workload's size) reaches the
// scenario: through the same Overrides the CLIs use.
func (w workload) overrides(seed uint64) scenario.Overrides {
	o := scenario.Overrides{Seed: &seed}
	if w.tenants > 0 {
		o.Tenants = &w.tenants
	}
	if w.items > 0 {
		o.Items = &w.items
	}
	return o
}

// Daemon-submit load: the metropolis world paced at warpFactor, an open
// loop of submitRate POST /submit a second and a GET /metrics every
// scrapeEvery, over at most loadConns keep-alive connections.
const (
	warpFactor  = 3600
	submitRate  = 1000
	scrapeEvery = 100 // milliseconds
	loadConns   = 2
	loadTenant  = "perfbench-load"
)

// order is the order -workload all runs the workloads in.
var order = []string{"metropolis", "storage-churn", "wan-deep", "daemon-submit"}

// workloads are the benchmark's workloads, by name.
var workloads = map[string]workload{
	// Ranked broker over a WAN: engine queue, fair-share UI gate, broker
	// picks that plan stage-in for all 8 candidates, and a campaign
	// report over 2000 tenants. The spec's root seed reaches no random
	// stream of this world, so every seed gives the same run.
	"metropolis": {
		name: "metropolis", seed: 9, scenario: "scenarios/metropolis.json", seeds: 1,
		pinned: &pin{Fingerprint: "11d3a29a2f81769e", Jobs: 100000, Failed: 0, Lost: 0, Repairs: 0, EvictedMB: 0, WANMB: 0, SpanS: 60082},
	},
	// Popularity-evicting 400 MB storage elements, a replication floor of
	// 2 and a storage outage under the rr broker: eviction and repair
	// work, no broker planning, little engine queue work.
	"storage-churn": {
		name: "storage-churn", seed: 13, scenario: "scenarios/se-churn.json", tenants: 120, seeds: 4,
		pinned: &pin{Fingerprint: "b1562e61f83aad58", Jobs: 3600, Failed: 0, Lost: 0, Repairs: 5635, EvictedMB: 16780, WANMB: 22280, SpanS: 25906.954944086},
	},
	// Single-stream WAN channels with a slow pair, Pareto inputs and
	// outputs registered each stage: resource queues, cluster release,
	// fabric channels and stage-in planning; few tenants, a blind broker.
	"wan-deep": {
		name: "wan-deep", seed: 7, scenario: "scenarios/contended-wan.json", tenants: 96, items: 400, seeds: 2,
		pinned: &pin{Fingerprint: "98c1bb5ec3adb0db", Jobs: 115200, Failed: 0, Lost: 0, Repairs: 0, EvictedMB: 0, WANMB: 865949.0446613121, SpanS: 134927.338553916},
	},
	// moteurd serving the metropolis world under HTTP load: the only
	// workload through the HTTP front-end and the injection inbox.
	"daemon-submit": {
		name: "daemon-submit", seed: 9, scenario: "scenarios/metropolis.json", daemon: true,
	},
}

// checkPin compares a run's outcome with the workload's pin. ok is false
// when the seed has no pin.
func (w workload) checkPin(seed uint64, got pin) (problem string, ok bool) {
	if w.pinned == nil || seed != w.seed {
		return "", false
	}
	if want := *w.pinned; got.String() != want.String() {
		return fmt.Sprintf("%s seed %d drifted from its pin:\n  want %s\n  got  %s", w.name, seed, want, got), true
	}
	return "", true
}
