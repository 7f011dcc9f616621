package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
)

// baselineDoc is a minimal valid scenario; rejection cases below are
// written as whole documents so each test sees the real line numbers.
const baselineDoc = `{
  "name": "base",
  "grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],
  "links": {"local": true},
  "policies": {"p": {"serviceParallelism": true}},
  "tenants": [{
    "prefix": "t", "count": 2, "policy": "p",
    "arrivals": {"kind": "staggered", "spread": "30s"},
    "workload": {"stages": 1, "items": 2, "runtime": "10s",
                 "sizes": {"kind": "constant", "meanMB": 5}}
  }]
}`

// lineOf returns the 1-based line of the first occurrence of token as a
// quoted JSON string — the anchor rule validation errors advertise.
func lineOf(t *testing.T, doc, token string) int {
	t.Helper()
	i := strings.Index(doc, `"`+token+`"`)
	if i < 0 {
		t.Fatalf("token %q not present in the document", token)
	}
	return 1 + strings.Count(doc[:i], "\n")
}

// mustReject parses doc and asserts the error carries both the message
// and, when token is non-empty, a "line N" anchor pointing at the
// token's source line.
func mustReject(t *testing.T, doc, token, wantMsg string) {
	t.Helper()
	_, err := Parse([]byte(doc), "test.json")
	if err == nil {
		t.Fatalf("spec accepted, want rejection containing %q", wantMsg)
	}
	if !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("error %q does not contain %q", err, wantMsg)
	}
	if token != "" {
		anchor := fmt.Sprintf("line %d:", lineOf(t, doc, token))
		if !strings.Contains(err.Error(), anchor) {
			t.Fatalf("error %q not anchored at %q (token %q)", err, anchor, token)
		}
	}
}

// edit returns the baseline with one line-level substitution applied.
func edit(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(baselineDoc, old) {
		t.Fatalf("baseline does not contain %q", old)
	}
	return strings.Replace(baselineDoc, old, new, 1)
}

func TestSpecBaselineValidates(t *testing.T) {
	if _, err := Parse([]byte(baselineDoc), "test.json"); err != nil {
		t.Fatal(err)
	}
}

// TestSpecRejectsStructuralErrors covers the decode layer: syntax
// errors, unknown fields and malformed durations all anchor to a line.
func TestSpecRejectsStructuralErrors(t *testing.T) {
	// Syntax error: a dangling comma, anchored by byte offset.
	doc := edit(t, `"links": {"local": true},`, `"links": {"local": true},,`)
	mustReject(t, doc, "", "line 4:")

	// Unknown top-level field, anchored to its own name.
	doc = edit(t, `"links": {"local": true},`, `"links": {"local": true},
  "frobnicate": 1,`)
	mustReject(t, doc, "frobnicate", `unknown field "frobnicate"`)

	// Anything after the spec object is rejected, not silently dropped.
	mustReject(t, baselineDoc+"\n,extra", "", "line 13: trailing data")

	// A bare-number duration is rejected: seconds vs milliseconds
	// ambiguity is exactly what the string form exists to prevent.
	doc = edit(t, `"runtime": "10s"`, `"runtime": 10`)
	mustReject(t, doc, "", "duration must be a string")

	// A duration with a bogus unit anchors to the offending token.
	doc = edit(t, `"runtime": "10s"`, `"runtime": "10 parsecs"`)
	mustReject(t, doc, "10 parsecs", "bad duration")
}

// TestSpecRejectsWorldErrors covers grid, link, outage and storage
// validation with line anchors.
func TestSpecRejectsWorldErrors(t *testing.T) {
	mustReject(t, edit(t, `"name": "base",`, ``), "", "missing scenario name")
	mustReject(t, edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`, `"grids": [],`),
		"base", "no grids")
	mustReject(t, edit(t, `"preset": "quiet"`, `"preset": "warp"`), "warp", `unknown preset "warp"`)
	mustReject(t, edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`,
		`"grids": [{"name": "g0"}, {"name": "g0"}],`), "g0", `duplicate grid name "g0"`)

	// A grid family is bounded before it is expanded: this count used to
	// exhaust memory inside Parse.
	mustReject(t, edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`,
		`"grids": [{"name": "g", "count": 300000000}],`), "g", "more than 1024 member grids")
	mustReject(t, edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`,
		`"grids": [{"name": "h"}, {"name": "g", "count": 1024}],`), "g", "more than 1024 member grids")

	// links.local is exclusive with every other link field.
	mustReject(t, edit(t, `"links": {"local": true},`, `"links": {"local": true, "wanMBps": 2},`),
		"links", "links.local excludes")

	// A pair override naming a grid outside the federation.
	doc := edit(t, `"links": {"local": true},`,
		`"links": {"wanMBps": 2, "wanLatency": "5s",
             "pairs": [{"from": "g0", "to": "gX", "mbps": 1, "latency": "2s"}]},`)
	mustReject(t, doc, "gX", `unknown grid "gX"`)

	// Non-finite bandwidths cannot reach the link model: JSON has no NaN
	// or Inf literal, and a float64 overflow is a decode error.
	mustReject(t, edit(t, `"links": {"local": true},`, `"links": {"wanMBps": NaN},`), "", "line 4:")
	mustReject(t, edit(t, `"links": {"local": true},`, `"links": {"wanMBps": 1e400},`), "", "wanMBps")

	// Overlapping outage windows of one grid and mode, the PR-6 rule.
	doc = edit(t, `"links": {"local": true},`, `"links": {"local": true},
  "outages": [{"grid": "g0", "at": "10m", "for": "30m"},
              {"grid": "g0", "at": "20m", "for": "5m"}],`)
	mustReject(t, doc, "g0", `outage windows of "g0" overlap`)

	// An open-ended first window shadows everything after it.
	doc = edit(t, `"links": {"local": true},`, `"links": {"local": true},
  "outages": [{"grid": "g0", "at": "10m"},
              {"grid": "g0", "at": "20m", "for": "5m"}],`)
	mustReject(t, doc, "g0", `outage windows of "g0" overlap`)

	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "storage": {"capacityMB": 100, "eviction": "fifo"},`),
		"fifo", `unknown eviction policy "fifo"`)
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "broker": {"policy": "random"},`),
		"random", `unknown policy "random"`)
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "wanStreams": -1,`),
		"wanStreams", "negative wanStreams")
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true},
  "waves": {"waves": 2, "spacing": "10m", "fraction": 1.5, "duration": "5m"},`),
		"fraction", "waves.fraction 1.5 outside (0, 1]")
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "admission": {"maxUIBacklog": 0, "retry": "1m"},`),
		"admission", "admission.maxUIBacklog must be positive")
}

// TestSpecLinkCostsNonNegative is the regression for link values that
// validation accepts but that used to price a fetch below zero — a
// vanishing positive bandwidth overflowed time.Duration, a negative
// latency subtracted — an estimate that would win broker ranking and
// trip the engine's negative-delay panic. Class and pair links alike
// must cost at least zero.
func TestSpecLinkCostsNonNegative(t *testing.T) {
	twoGrids := edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`,
		`"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}, {"name": "g1", "preset": "quiet", "nodes": 4}],`)
	for _, links := range []string{
		`"links": {"wanMBps": 1e-9, "wanLatency": "5s", "pairs": [{"from": "g0", "to": "g1", "mbps": 1e-9}]},`,
		`"links": {"wanMBps": 2, "wanLatency": "-1h", "pairs": [{"from": "g0", "to": "g1", "mbps": 2, "latency": "-1h"}]},`,
	} {
		doc := strings.Replace(twoGrids, `"links": {"local": true},`, links, 1)
		spec, err := Parse([]byte(doc), "test.json")
		if err != nil {
			t.Fatal(err)
		}
		lm := spec.compileLinks()
		consumer := grid.Site{Grid: "g1", Cluster: "c0"}
		for _, from := range []grid.Site{{Grid: "g0", Cluster: "c0"}, {Grid: "g2", Cluster: "c0"}} {
			if c := lm.Link(from, consumer).Cost(10); c < 0 {
				t.Errorf("%s: Cost(10 MB) from %v = %v, want >= 0", links, from, c)
			}
		}
	}
}

// TestSpecRejectsTenantErrors covers tenant group, arrival and workload
// validation with line anchors.
func TestSpecRejectsTenantErrors(t *testing.T) {
	mustReject(t, edit(t, `"policy": "p",`, `"policy": "nope",`),
		"nope", `references missing policy "nope"`)
	mustReject(t, edit(t, `"prefix": "t", "count": 2, "policy": "p",`,
		`"prefix": "t", "count": -2, "policy": "p",`),
		"t", `tenant group "t" has a negative count`)

	// The population and its jobs are bounded before Compile builds
	// them: a count of 1e9 used to be compiled without limit.
	mustReject(t, edit(t, `"prefix": "t", "count": 2, "policy": "p",`,
		`"prefix": "t", "count": 1000000000, "policy": "p",`),
		"t", "more than 20000 tenants")
	mustReject(t, edit(t, `"stages": 1, "items": 2,`, `"stages": 1, "items": 500001,`),
		"t", "more than 1000000 jobs")
	mustReject(t, edit(t, `"kind": "staggered", "spread": "30s"`, `"kind": "sometimes"`),
		"sometimes", `unknown arrival kind "sometimes"`)
	mustReject(t, edit(t, `"kind": "staggered", "spread": "30s"`, `"kind": "poisson"`),
		"t", "poisson arrivals need a positive meanIAT")
	mustReject(t, edit(t, `"kind": "staggered", "spread": "30s"`, `"kind": "bursty", "meanIAT": "5m"`),
		"t", "bursty arrivals need a positive burst")
	mustReject(t, edit(t, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "uniform", "meanMB": 5}`),
		"uniform", `unknown size kind "uniform"`)
	mustReject(t, edit(t, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "pareto", "minMB": 0, "alpha": 1.5}`),
		"t", "pareto sizes need a positive minMB and alpha")
	mustReject(t, edit(t, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "pareto", "minMB": 4, "alpha": 1.5, "maxMB": 2}`),
		"t", "size cap below the minimum")
	mustReject(t, edit(t, `"workload": {"stages": 1, "items": 2, "runtime": "10s",`,
		`"workload": {"stages": 0, "items": 2, "runtime": "10s",`),
		"t", "needs positive stages and items")
	mustReject(t, edit(t, `"workload": {"stages": 1, "items": 2, "runtime": "10s",`,
		`"workload": {"stages": 1, "items": 2, "runtime": "10s", "skew": 1.2,`),
		"t", "placement skew 1.2 outside [0, 1]")
	mustReject(t, edit(t, `"workload": {"stages": 1, "items": 2, "runtime": "10s",`,
		`"workload": {"stages": 1, "items": 2, "runtime": "10s", "homes": ["gZ"],`),
		"gZ", `homes at unknown grid "gZ"`)

	// Duplicate tenant prefixes collide in report rows and rng forks.
	doc := edit(t, `  "tenants": [{`, `  "tenants": [{
    "prefix": "t", "count": 1, "policy": "p",
    "workload": {"stages": 1, "items": 1, "runtime": "5s",
                 "sizes": {"kind": "constant", "meanMB": 5}}
  }, {`)
	mustReject(t, doc, "t", `duplicate tenant group prefix "t"`)
}
