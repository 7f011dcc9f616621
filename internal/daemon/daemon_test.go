package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// testSpec is a small closed world: two quiet grids, two staggered
// tenants running 2-stage chains over constant 5 MB inputs.
const testSpec = `{
  "name": "daemon-test",
  "seed": 7,
  "grids": [{"name": "g", "count": 2, "nodes": 4}],
  "links": {"local": true},
  "policies": {"par": {"dataParallelism": true, "serviceParallelism": true}},
  "tenants": [{
    "count": 2, "prefix": "t", "policy": "par",
    "arrivals": {"kind": "staggered", "spread": "30s"},
    "workload": {
      "stages": 2, "items": 4, "runtime": "10s",
      "sizes": {"kind": "constant", "meanMB": 5}
    }
  }]
}`

func compileTestWorld(t *testing.T, src string) *scenario.World {
	t.Helper()
	spec, err := scenario.Parse([]byte(src), "daemon_test.json")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	w, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return w
}

// TestReplayMatchesClosedRun is the determinism acceptance gate: an
// as-fast-as-possible replay through the daemon's incremental driver
// reproduces the closed Execution.Run outcome of the same scenario file,
// fingerprint and makespan both.
func TestReplayMatchesClosedRun(t *testing.T) {
	spec, err := scenario.Load("../../scenarios/clean-baseline.json")
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	closedWorld, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	closedX, err := closedWorld.Start()
	if err != nil {
		t.Fatalf("closed run: %v", err)
	}
	closedRep := closedX.Run()
	closedFP := scenario.Fingerprint(closedRep, closedWorld.Fed)

	daemonWorld, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d, err := New(Config{World: daemonWorld, Warp: 0, Replay: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-d.Wait():
	case <-time.After(2 * time.Minute):
		t.Fatal("replay did not finish")
	}
	rep := d.Report()
	if rep.Makespan != closedRep.Makespan {
		t.Fatalf("replay makespan %v, closed run %v", rep.Makespan, closedRep.Makespan)
	}
	if fp := d.Fingerprint(); fp != closedFP {
		t.Fatalf("replay fingerprint %016x, closed run %016x", fp, closedFP)
	}
}

// TestPacedReplayMatchesClosedRun drives the same world through the
// paced branch (a huge warp factor against the real clock, so the run
// still finishes instantly) and expects the identical outcome: pacing
// changes when events fire on the wall, never what they compute.
func TestPacedReplayMatchesClosedRun(t *testing.T) {
	closedWorld := compileTestWorld(t, testSpec)
	closedX, err := closedWorld.Start()
	if err != nil {
		t.Fatalf("closed run: %v", err)
	}
	closedRep := closedX.Run()
	closedFP := scenario.Fingerprint(closedRep, closedWorld.Fed)

	d, err := New(Config{World: compileTestWorld(t, testSpec), Warp: 1e9, Replay: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-d.Wait():
	case <-time.After(time.Minute):
		t.Fatal("paced replay did not finish")
	}
	if fp := d.Fingerprint(); fp != closedFP {
		t.Fatalf("paced replay fingerprint %016x, closed run %016x", fp, closedFP)
	}
}

// startServingDaemon boots an HTTP-serving daemon over the test spec and
// returns it with its base URL. The daemon is stopped at test cleanup.
func startServingDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	if cfg.World == nil {
		cfg.World = compileTestWorld(t, testSpec)
	}
	cfg.Addr = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(d.Stop)
	return d, "http://" + d.Addr()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func httpPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return resp.StatusCode, string(out)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHTTPSubmitJobsMetricsSnapshot exercises the serving daemon end to
// end: a live HTTP submission mid-run, job completion visible on /jobs,
// per-grid telemetry on /metrics, outage commands, the /snapshot
// endpoint, and the final on-disk snapshot at shutdown.
func TestHTTPSubmitJobsMetricsSnapshot(t *testing.T) {
	snapDir := t.TempDir()
	d, base := startServingDaemon(t, Config{
		Warp:          0, // as fast as possible: the boot campaign drains immediately
		SnapshotDir:   snapDir,
		SnapshotEvery: time.Hour, // periodic ticks out of the way; the final snapshot is the one under test
	})

	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	// Submit two probe jobs over HTTP while the daemon runs.
	code, body := httpPost(t, base+"/submit", `{"tenant":"ext","name":"probe","runtimeSeconds":5,"count":2}`)
	if code != http.StatusOK {
		t.Fatalf("/submit: %d %s", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatalf("/submit response: %v", err)
	}
	if len(sub.IDs) != 2 {
		t.Fatalf("/submit returned ids %v, want 2", sub.IDs)
	}

	// An unknown input is rejected without touching the world.
	if code, _ := httpPost(t, base+"/submit", `{"name":"bad","runtimeSeconds":1,"inputs":["no-such-file"]}`); code != http.StatusBadRequest {
		t.Fatalf("/submit with unknown input: %d, want 400", code)
	}

	// The probes complete (warp 0 drains them as soon as they land).
	waitFor(t, "probe jobs to complete", func() bool {
		_, body := httpGet(t, base+"/jobs")
		var jobs []JobView
		if err := json.Unmarshal([]byte(body), &jobs); err != nil {
			t.Fatalf("/jobs: %v", err)
		}
		// Record IDs are per-grid sequences, so match on the tenant tag.
		done := 0
		for _, j := range jobs {
			if j.Tenant == "ext" && j.Status == "completed" {
				done++
			}
		}
		return done == len(sub.IDs)
	})

	// /metrics serves the per-grid EWMAs and the submission counter.
	_, metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{
		`moteur_grid_submit_ewma_seconds{grid="g0"}`,
		`moteur_grid_queue_ewma_seconds{grid="g1"}`,
		`moteur_grid_stretch{grid="g0"}`,
		"moteur_submissions_total 2",
		"moteur_virtual_seconds",
		"moteur_repairs_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	// Outage commands flip the per-grid up gauge.
	if code, body := httpPost(t, base+"/outage", `{"grid":"g1","action":"down"}`); code != http.StatusOK {
		t.Fatalf("/outage: %d %s", code, body)
	}
	_, metrics = httpGet(t, base+"/metrics")
	if !strings.Contains(metrics, `moteur_grid_up{grid="g1"} 0`) {
		t.Fatalf("/metrics does not show g1 down:\n%s", metrics)
	}
	if code, _ := httpPost(t, base+"/outage", `{"grid":"g1","action":"up"}`); code != http.StatusOK {
		t.Fatal("/outage up failed")
	}
	if code, _ := httpPost(t, base+"/outage", `{"grid":"nope","action":"down"}`); code != http.StatusBadRequest {
		t.Fatalf("/outage unknown grid: %d, want 400", code)
	}

	// /snapshot serves the live state as JSON.
	_, body = httpGet(t, base+"/snapshot")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.Scenario != "daemon-test" || len(snap.Federation.Grids) != 2 {
		t.Fatalf("/snapshot: scenario %q, %d grids", snap.Scenario, len(snap.Federation.Grids))
	}
	if snap.Submissions != 2 {
		t.Fatalf("/snapshot submissions %d, want 2", snap.Submissions)
	}

	// Shutdown writes a final, parseable snapshot.
	d.Stop()
	data, err := os.ReadFile(filepath.Join(snapDir, "latest.json"))
	if err != nil {
		t.Fatalf("latest.json: %v", err)
	}
	var final Snapshot
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatalf("latest.json: %v", err)
	}
	if !final.Final {
		t.Fatal("latest.json is not marked final")
	}
	if final.Scenario != "daemon-test" {
		t.Fatalf("final snapshot scenario %q", final.Scenario)
	}

	// The daemon refuses work after shutdown.
	if err := d.call(func() {}); err == nil {
		t.Fatal("call after Stop did not fail")
	}
}

// waitJobDone polls /jobs until the named job has completed.
func waitJobDone(t *testing.T, base, name string) {
	t.Helper()
	waitFor(t, name+" to complete", func() bool {
		_, body := httpGet(t, base+"/jobs")
		var jobs []JobView
		if err := json.Unmarshal([]byte(body), &jobs); err != nil {
			t.Fatalf("/jobs: %v", err)
		}
		for _, j := range jobs {
			if j.Name == name && j.Status == "completed" {
				return true
			}
		}
		return false
	})
}

// TestSubmitValidation covers the /submit request checks. A runtime past
// the one-year ceiling would overflow into a negative engine delay and
// crash the driver, so the daemon must still be healthy once the last
// (valid) job has landed.
func TestSubmitValidation(t *testing.T) {
	_, base := startServingDaemon(t, Config{Warp: 0})
	cases := []struct {
		body string
		want int
	}{
		{`{"runtimeSeconds":1}`, http.StatusBadRequest}, // no name
		{`{"name":"x","runtimeSeconds":-1}`, http.StatusBadRequest},
		{`{"name":"x","runtimeSeconds":1e300}`, http.StatusBadRequest},
		{`{"name":"x","runtimeSeconds":1e12}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"name":"x","runtimeSeconds":1,"count":1000000}`, http.StatusBadRequest},
		{`{"name":"x","runtimeSeconds":1}`, http.StatusOK},
	}
	for _, c := range cases {
		if code, body := httpPost(t, base+"/submit", c.body); code != c.want {
			t.Errorf("/submit %s: %d (%s), want %d", c.body, code, bytes.TrimSpace([]byte(body)), c.want)
		}
	}
	waitJobDone(t, base, "x")
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after validation table: %d %q", code, body)
	}
}

// TestSubmitRejectsBadOutputs posts output declarations with a negative
// size, a size past the ceiling, or no name to a capacity-limited world.
// Accepted, a negative size would panic the driver when the job lands (a
// negative SE gauge add) and a huge one would overflow the stage-out
// delay. All must be refused and the daemon must keep serving.
func TestSubmitRejectsBadOutputs(t *testing.T) {
	const capSpec = `{
	  "name": "daemon-capacity",
	  "seed": 3,
	  "grids": [{"name": "g", "nodes": 2}],
	  "links": {"local": true},
	  "storage": {"capacityMB": 100},
	  "policies": {"seq": {}},
	  "tenants": [{
	    "prefix": "t", "policy": "seq",
	    "workload": {"stages": 1, "items": 1, "runtime": "5s",
	      "sizes": {"kind": "constant", "meanMB": 1}}
	  }]
	}`
	_, base := startServingDaemon(t, Config{World: compileTestWorld(t, capSpec), Warp: 0})
	for _, body := range []string{
		`{"name":"neg","runtimeSeconds":1,"outputs":[{"name":"o-neg","sizeMB":-5}]}`,
		`{"name":"huge","runtimeSeconds":1,"outputs":[{"name":"o-huge","sizeMB":1e300}]}`,
		`{"name":"anon","runtimeSeconds":1,"outputs":[{"sizeMB":1}]}`,
	} {
		if code, reply := httpPost(t, base+"/submit", body); code != http.StatusBadRequest {
			t.Errorf("/submit %s: %d (%s), want 400", body, code, bytes.TrimSpace([]byte(reply)))
		}
	}
	if code, reply := httpPost(t, base+"/submit", `{"name":"ok","runtimeSeconds":1,"outputs":[{"name":"o-ok","sizeMB":5}]}`); code != http.StatusOK {
		t.Fatalf("/submit valid output: %d (%s)", code, reply)
	}
	waitJobDone(t, base, "ok")
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after bad outputs: %d %q", code, body)
	}
}

// TestFailedCampaignReplayExits verifies a replay whose tenants fail
// terminally still terminates (with the errors reported) instead of
// hanging.
func TestFailedCampaignReplayExits(t *testing.T) {
	// A permanent full outage of the only grid before the tenant arrives:
	// every submission fails terminally with nowhere to re-broker.
	const stalledSpec = `{
	  "name": "daemon-stall",
	  "grids": [{"name": "g", "nodes": 2}],
	  "links": {"local": true},
	  "outages": [{"grid": "g", "at": "1s"}],
	  "policies": {"par": {"dataParallelism": true}},
	  "tenants": [{
	    "prefix": "t", "policy": "par",
	    "arrivals": {"kind": "staggered", "start": "5s"},
	    "workload": {"stages": 1, "items": 2, "runtime": "10m",
	      "sizes": {"kind": "constant", "meanMB": 1}}
	  }]
	}`
	d, err := New(Config{World: compileTestWorld(t, stalledSpec), Warp: 0, Replay: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-d.Wait():
	case <-time.After(time.Minute):
		t.Fatal("stalled replay did not exit")
	}
	rep := d.Report()
	if len(rep.Tenants) != 1 || rep.Tenants[0].Err == nil {
		t.Fatalf("failed-campaign replay report: %+v", rep.Tenants)
	}
}

// TestOversizeBodyRefused posts request bodies past the size cap to both
// body-reading endpoints: each must be refused with 413 without being
// read in full, and the daemon must keep serving afterwards.
func TestOversizeBodyRefused(t *testing.T) {
	_, base := startServingDaemon(t, Config{Warp: 0})
	huge := `{"name":"big","runtimeSeconds":1,"inputs":["` + strings.Repeat("x", maxBodyBytes) + `"]}`
	for _, path := range []string{"/submit", "/outage"} {
		if code, body := httpPost(t, base+path, huge); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d (%.80s), want 413", path, len(huge), code, body)
		}
	}
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after oversize bodies: %d %q", code, body)
	}
}
