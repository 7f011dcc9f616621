package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// daemonReady is the line a serving daemon child prints once /healthz
// answers: where it listens, when its pacing clock started, and how long
// set-up took.
type daemonReady struct {
	Addr        string  `json:"addr"`
	StartUnixNs int64   `json:"start_unix_ns"`
	SetupS      float64 `json:"setup_s"`
}

// daemonResult is what a daemon child reports after it has stopped.
type daemonResult struct {
	SetupS float64 `json:"setup_s"`
	// LoadJobs maps each job the daemon records for the load tenant, by
	// job name, to its member grid and record ID: every accepted
	// submission must be among them, under the ID its reply carried.
	LoadJobs map[string]jobRef  `json:"load_jobs"`
	Counts   map[string]float64 `json:"counts"`
	Host     map[string]float64 `json:"host"`
	Problems []string           `json:"problems,omitempty"`
}

// runDaemon boots moteurd in this process over the workload's world and
// reports set-up time: scenario.Load, Compile, daemon.New (which starts
// the campaign), Start, and the wait for the first /healthz 200. With
// setupOnly it stops right there. Otherwise it prints a daemonReady line,
// serves until stdin closes, stops, and reports what it served.
func runDaemon(root string, w workload, seed uint64, traced, setupOnly bool, stdin io.Reader, stdout io.Writer) (*daemonResult, *tracer, error) {
	res := &daemonResult{LoadJobs: map[string]jobRef{}, Counts: map[string]float64{}, Host: map[string]float64{}}
	p := &probe{}
	if traced {
		p.tr = newTracer(int(seed))
	}
	t0 := time.Now()
	spec, err := scenario.Load(filepath.Join(root, w.scenario))
	if err != nil {
		return nil, nil, err
	}
	if err := w.overrides(seed).Apply(spec); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	world, err := scenario.Compile(eng, spec)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		p.wrapBuilds(world.Tenants, true)
		p.wrapLinks(world.Fed.Catalog())
	}
	tNew := time.Now()
	d, err := daemon.New(daemon.Config{World: world, Warp: warpFactor, Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	startS := time.Since(tNew).Seconds()
	started := time.Now()
	if err := d.Start(); err != nil {
		return nil, nil, err
	}
	defer d.Stop()
	if err := awaitHealthy(d.Addr(), 10*time.Second); err != nil {
		return nil, nil, err
	}
	res.SetupS = time.Since(t0).Seconds()
	if setupOnly {
		return res, p.tr, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	ready := daemonReady{Addr: d.Addr(), StartUnixNs: started.UnixNano(), SetupS: res.SetupS}
	if err := json.NewEncoder(stdout).Encode(ready); err != nil {
		return nil, nil, err
	}
	if _, err := io.Copy(io.Discard, stdin); err != nil {
		return nil, nil, fmt.Errorf("waiting for the load to end: %w", err)
	}
	d.Stop()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	// The daemon's engine goroutine has exited: the world is ours to read.
	if traced {
		p.tr.begin(layerReport)
	}
	rep := d.Report()
	if traced {
		p.tr.end()
	}
	readCounts(res.Counts, rep, world.Fed, eng)
	res.Counts["broker.submits"] = float64(p.submits)
	res.Counts["campaign.tenant_stats_calls"] = float64(p.statsCalls)
	for _, r := range world.Fed.Records() {
		if r.Tenant == loadTenant {
			res.LoadJobs[r.Spec.Name] = jobRef{Grid: r.Grid, ID: r.ID}
		}
	}
	res.Host["runtime.cpu_s"] = cpu.Seconds()
	res.Host["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	res.Host["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	res.Host["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if traced {
		res.Host["campaign.start_s"] = startS
		spanTimes(res.Host, p.tr)
		res.Host["catalog.link_calls"] = float64(p.linkCalls)
	}
	dispatched := 0
	for i := 0; i < world.Fed.Size(); i++ {
		dispatched += world.Fed.Telemetry(i).Dispatched
	}
	if n := len(world.Fed.Records()); dispatched != n {
		res.Problems = append(res.Problems, fmt.Sprintf("grids dispatched %d jobs but the federation holds %d records", dispatched, n))
	}
	return res, p.tr, nil
}

// awaitHealthy polls /healthz until it answers 200.
func awaitHealthy(addr string, limit time.Duration) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v (last error %v)", addr, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobRef identifies a job record: record IDs are per-grid sequences, so
// a record is named by its member grid and ID together.
type jobRef struct {
	Grid string `json:"grid"`
	ID   int    `json:"id"`
}

// request is one scheduled operation of the load: a submission or a
// telemetry scrape, due at an offset from the start of the load.
type request struct {
	due    time.Duration
	scrape bool
	seq    int
}

// schedule lays out the open loop: submitRate submissions a second and
// one scrape every scrapeEvery milliseconds, in due order.
func schedule(window time.Duration) []request {
	var rs []request
	n := int(window.Seconds() * submitRate)
	for i := 0; i < n; i++ {
		rs = append(rs, request{due: time.Duration(i) * time.Second / submitRate, seq: i})
	}
	for j := 0; time.Duration(j)*scrapeEvery*time.Millisecond < window; j++ {
		// Half a submission interval off the submit grid, so scrapes and
		// submissions never tie.
		due := time.Duration(j)*scrapeEvery*time.Millisecond + time.Second/submitRate/2
		rs = append(rs, request{due: due, scrape: true, seq: j})
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].due < rs[b].due })
	return rs
}

// loadResult is the generator's record of one daemon-submit run.
type loadResult struct {
	submits, scrapes []op
	// accepted are the accepted submissions in reply order, per
	// connection.
	accepted [loadConns][]acceptance
	problems []string
	// campaignDone is when a scrape first saw the boot campaign finished
	// (zero if none did).
	campaignDone time.Time
	peakPending  int
	// paceLag is, per accepted submission, the paced virtual target at
	// the reply minus the virtual instant the daemon injected it at.
	paceLag []float64
}

// generate runs the open loop against the daemon at addr for window,
// then keeps scraping (no more submissions) until the boot campaign has
// finished or drainLimit has passed. started is the daemon's pacing
// origin.
func generate(addr string, started time.Time, window, drainLimit time.Duration) *loadResult {
	res := &loadResult{}
	tr := &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	base := "http://" + addr

	reqs := schedule(window)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	origin := time.Now()
	for wkr := 0; wkr < loadConns; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := origin.Add(r.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := op{due: due, sent: time.Now()}
				if r.scrape {
					rem, pend, err := scrape(client, base)
					o.reply, o.ok = time.Now(), err == nil
					mu.Lock()
					res.scrapes = append(res.scrapes, o)
					if err != nil {
						res.problems = append(res.problems, fmt.Sprintf("scrape %d: %v", r.seq, err))
					} else {
						res.peakPending = max(res.peakPending, pend)
						if rem == 0 && res.campaignDone.IsZero() {
							res.campaignDone = o.reply
						}
					}
					mu.Unlock()
					continue
				}
				sub, err := submit(client, base, r.seq)
				o.reply, o.ok = time.Now(), err == nil
				mu.Lock()
				res.submits = append(res.submits, o)
				if err != nil {
					res.problems = append(res.problems, fmt.Sprintf("submit %d: %v", r.seq, err))
				} else {
					res.accepted[wkr] = append(res.accepted[wkr], acceptance{name: jobName(r.seq), id: sub.IDs[0]})
					target := o.reply.Sub(started).Seconds() * warpFactor
					res.paceLag = append(res.paceLag, target-sub.VirtualSeconds)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(drainLimit)
	for res.campaignDone.IsZero() && time.Now().Before(deadline) {
		time.Sleep(scrapeEvery * time.Millisecond)
		if rem, _, err := scrape(client, base); err == nil && rem == 0 {
			res.campaignDone = time.Now()
		}
	}
	if res.campaignDone.IsZero() {
		res.problems = append(res.problems, fmt.Sprintf("boot campaign still running %v after the load ended", drainLimit))
	}
	return res
}

// acceptance is one accepted submission: the job name sent and the
// record ID the reply carried.
type acceptance struct {
	name string
	id   int
}

// jobName is the name of the load's seq-th submission.
func jobName(seq int) string { return "load-" + strconv.Itoa(seq) }

// checkIDs verifies the job IDs the daemon handed out against the records
// it holds afterwards: every accepted job is recorded under the ID its
// reply carried, no record is reported twice, and on each connection
// (whose requests are sequential) the IDs a member grid hands out
// increase. Record IDs are per-grid sequences, so uniqueness and order
// are per grid.
func checkIDs(perConn [][]acceptance, records map[string]jobRef) []string {
	var out []string
	seen := make(map[jobRef]string)
	for c, accs := range perConn {
		last := make(map[string]int)
		for _, a := range accs {
			ref, ok := records[a.name]
			switch {
			case !ok:
				out = append(out, fmt.Sprintf("accepted job %s is not among the daemon's records", a.name))
				continue
			case ref.ID != a.id:
				out = append(out, fmt.Sprintf("job %s: reply carried ID %d, the daemon records %s/%d", a.name, a.id, ref.Grid, ref.ID))
			}
			if other, dup := seen[ref]; dup {
				out = append(out, fmt.Sprintf("jobs %s and %s share record %s/%d", other, a.name, ref.Grid, ref.ID))
			}
			seen[ref] = a.name
			if prev, ok := last[ref.Grid]; ok && ref.ID <= prev {
				out = append(out, fmt.Sprintf("connection %d: grid %s handed out ID %d after %d", c, ref.Grid, ref.ID, prev))
			}
			last[ref.Grid] = ref.ID
		}
	}
	return out
}

// submit posts one job for the load tenant and checks the reply carries
// exactly one ID.
func submit(c *http.Client, base string, seq int) (*daemon.SubmitResponse, error) {
	body, err := json.Marshal(daemon.SubmitRequest{Tenant: loadTenant, Name: jobName(seq), RuntimeSeconds: 60})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var sub daemon.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if len(sub.IDs) != 1 {
		return nil, fmt.Errorf("reply carries %d IDs for 1 job", len(sub.IDs))
	}
	return &sub, nil
}

// scrape reads /metrics and returns the boot campaign's unfinished tenant
// count and the engine's pending events.
func scrape(c *http.Client, base string) (remaining, pending int, err error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	remaining, pending = -1, -1
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "moteur_campaign_tenants_remaining "); ok {
			remaining, err = strconv.Atoi(v)
		} else if v, ok := strings.CutPrefix(line, "moteur_events_pending "); ok {
			pending, err = strconv.Atoi(v)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %q: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if remaining < 0 || pending < 0 {
		return 0, 0, errors.New("reply lacks the campaign or engine gauges")
	}
	return remaining, pending, nil
}

// daemonChildMain is the daemon child's entry point.
func daemonChildMain(root string, w workload, seed uint64, traced, setupOnly bool) error {
	res, tr, err := runDaemon(root, w, seed, traced, setupOnly, os.Stdin, os.Stdout)
	if err != nil {
		return err
	}
	if err := writeTrace(root, w, seed, tr); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
