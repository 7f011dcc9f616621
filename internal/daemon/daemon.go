// Package daemon turns the closed federation simulator into a
// long-running online broker service: moteurd. It boots a compiled
// scenario world, then drives the engine *incrementally* — a pacing loop
// maps wall-clock time onto virtual time (real-time, time-warped by a
// -warp factor, or as fast as possible) using the engine's
// Step/NextAt/RunUntil primitives — while an injection queue
// (sim.Inbox) lets external events arriving over HTTP (job submissions,
// outage commands, telemetry scrapes) be scheduled onto the engine
// between steps without violating its single-threaded determinism
// contract.
//
// Wall-clock time and HTTP live only here and in cmd/moteurd: the
// simulation-critical packages stay clean under the simtime analyzer,
// and the engine itself only ever sees virtual instants. The
// determinism argument, the snapshot format and the pacing loop are
// documented in DESIGN.md ("The online broker daemon").
package daemon

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/federation"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Config assembles a daemon.
type Config struct {
	// World is the compiled scenario world to serve (required). The
	// world's campaign — its tenant roster under its admission gate — is
	// started at boot; external submissions ride alongside it.
	World *scenario.World
	// Warp is the pacing factor: virtual seconds advanced per wall-clock
	// second. 1 is real time, 60 compresses a virtual minute into a wall
	// second, and any value <= 0 means as-fast-as-possible (no pacing —
	// the engine drains as quickly as the host allows).
	Warp float64
	// Replay makes the daemon exit once the boot campaign completes (and
	// the drain stops exactly there, mirroring the closed
	// campaign.Execution.Run loop): the time-warped replay mode whose
	// outcome reproduces the closed run's fingerprint event-for-event.
	// Without it the daemon keeps serving after the campaign finishes.
	Replay bool
	// Addr is the HTTP listen address (e.g. "127.0.0.1:8321"). Empty
	// disables the HTTP front-end.
	Addr string
	// SnapshotDir, when non-empty, enables periodic JSON state snapshots:
	// snapshot-NNNNNN.json plus an atomically-replaced latest.json, and a
	// final snapshot on shutdown (SIGTERM-safe).
	SnapshotDir string
	// SnapshotEvery is the wall-clock period between periodic snapshots.
	// Zero means 10 s.
	SnapshotEvery time.Duration
	// Clock supplies wall time to the pacing loop. Nil means RealClock.
	Clock Clock
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// ErrStopped reports an operation refused because the daemon's driver
// loop has exited.
var ErrStopped = errors.New("daemon: stopped")

// Daemon is a running moteurd instance: one engine, one federation, one
// driver goroutine that owns them, and an HTTP front-end that talks to
// the driver exclusively through the injection queue.
type Daemon struct {
	cfg   Config
	clock Clock
	eng   *sim.Engine
	fed   *federation.Federation
	exec  *campaign.Execution

	inbox    sim.Inbox
	wake     chan struct{}
	stop     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once

	srv *http.Server
	ln  net.Listener

	// injected counts external events admitted through the inbox;
	// submissions counts the jobs among them. Written by the driver
	// goroutine (and handlers running inside injected events), read the
	// same way — snapshots and /metrics copy them out via the inbox.
	injected    uint64
	submissions uint64
	snapSeq     int
}

// New boots a daemon over the compiled world: the world's campaign is
// scheduled on the engine (nothing runs yet) and the HTTP front-end is
// prepared. Call Start to begin serving and pacing.
func New(cfg Config) (*Daemon, error) {
	if cfg.World == nil {
		return nil, errors.New("daemon: Config.World is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	exec, err := cfg.World.Start()
	if err != nil {
		return nil, fmt.Errorf("daemon: starting campaign: %w", err)
	}
	d := &Daemon{
		cfg:     cfg,
		clock:   cfg.Clock,
		eng:     cfg.World.Eng,
		fed:     cfg.World.Fed,
		exec:    exec,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	return d, nil
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so idle or trickling connections cannot pin server goroutines.
// There is deliberately no write timeout: /snapshot and /metrics are
// served under load and may take long to render.
const readHeaderTimeout = 10 * time.Second

// Start begins serving: the HTTP listener binds (when configured) and
// the driver goroutine starts pacing the engine. It returns immediately;
// use Wait to observe termination.
func (d *Daemon) Start() error {
	if d.cfg.Addr != "" {
		ln, err := net.Listen("tcp", d.cfg.Addr)
		if err != nil {
			return fmt.Errorf("daemon: listen %s: %w", d.cfg.Addr, err)
		}
		d.ln = ln
		d.srv = &http.Server{Handler: d.mux(), ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			if err := d.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.cfg.Logf("moteurd: http: %v", err)
			}
		}()
		d.cfg.Logf("moteurd: serving on http://%s", ln.Addr())
	}
	go d.drive()
	return nil
}

// Addr returns the bound HTTP address (empty when HTTP is disabled).
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Wait returns a channel closed when the driver loop has exited — after
// Stop, or on its own once a Replay run's campaign completes.
func (d *Daemon) Wait() <-chan struct{} { return d.stopped }

// Stop shuts the daemon down: the driver loop writes a final snapshot
// and exits, and the HTTP front-end closes. Safe to call more than once
// and from any goroutine (it is the SIGTERM handler's entry point).
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.stopped
	if d.srv != nil {
		d.srv.Close()
	}
}

// Report renders the boot campaign's outcome. Only valid after Wait has
// fired: the driver goroutine owns the engine until then.
func (d *Daemon) Report() *campaign.Report { return d.exec.Report() }

// Fingerprint condenses the finished run into the scenario determinism
// fingerprint (scenario.Fingerprint over the campaign report and the
// federation). Only valid after Wait has fired.
func (d *Daemon) Fingerprint() uint64 {
	return scenario.Fingerprint(d.exec.Report(), d.fed)
}

// poke nudges the driver loop awake after an inbox post.
func (d *Daemon) poke() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// call runs fn inside the engine's control flow — injected through the
// inbox, scheduled at the current virtual instant — and blocks until it
// has executed. It is how HTTP handlers read or mutate simulation state
// without ever touching the engine from their own goroutine.
func (d *Daemon) call(fn func()) error {
	done := make(chan struct{})
	d.inbox.Post(func() {
		d.injected++
		fn()
		close(done)
	})
	d.poke()
	select {
	case <-done:
		return nil
	case <-d.stopped:
		// The driver may have drained the post on its way out; prefer the
		// completed answer when it did.
		select {
		case <-done:
			return nil
		default:
			return ErrStopped
		}
	}
}

// stepBudget bounds how many events fire between responsiveness checks
// (stop, wake, inbox) during a drain burst, so a huge backlog cannot
// make the daemon deaf for its duration.
const stepBudget = 4096

// drive is the pacing loop: the single goroutine that owns the engine.
// Each round drains the injection queue, fires every event due at the
// paced virtual target, advances the paced clock, writes periodic
// snapshots, and sleeps until the next wall deadline (or an injection).
func (d *Daemon) drive() {
	defer close(d.stopped)
	wallStart := d.clock.Now()
	virtStart := d.eng.Now()
	lastSnap := wallStart
	for {
		select {
		case <-d.stop:
			d.finalSnapshot()
			return
		default:
		}

		d.inbox.Drain(d.eng)

		// The paced virtual target: how far virtual time may advance
		// right now. Unpaced (Warp <= 0) runs drain everything due.
		paced := d.cfg.Warp > 0
		var vtarget sim.Time
		if paced {
			elapsed := d.clock.Now().Sub(wallStart)
			vtarget = virtStart + sim.Time(float64(elapsed)*d.cfg.Warp)
		}

		// Fire due events, checking responsiveness every stepBudget
		// steps. A Replay run stops exactly when the campaign does,
		// mirroring campaign.Execution.Run's drain loop so the outcome
		// (and its fingerprint) is the closed run's.
		steps := 0
		drained := false
		for {
			if d.cfg.Replay && d.exec.Done() {
				d.cfg.Logf("moteurd: campaign complete at virtual %v", d.eng.Now())
				d.finalSnapshot()
				return
			}
			next, ok := d.eng.NextAt()
			if !ok {
				drained = true
				break
			}
			if paced && next > vtarget {
				break
			}
			d.eng.Step()
			if steps++; steps >= stepBudget {
				break
			}
		}
		if steps >= stepBudget {
			continue // re-check stop/inbox before burning the next burst
		}
		if drained && d.cfg.Replay && d.inbox.Len() == 0 {
			// The engine ran dry with tenants still unfinished: the
			// campaign is stalled. Exit so Report can say so rather than
			// sleeping forever.
			d.cfg.Logf("moteurd: campaign stalled at virtual %v (%d tenants unfinished)", d.eng.Now(), d.exec.Remaining())
			d.finalSnapshot()
			return
		}
		if paced && vtarget > d.eng.Now() {
			// Nothing due before the target: advance the clock to it so
			// injections land at the paced virtual instant.
			d.eng.RunUntil(vtarget)
		}

		// Periodic snapshots on the wall clock.
		if d.cfg.SnapshotDir != "" {
			if now := d.clock.Now(); now.Sub(lastSnap) >= d.cfg.SnapshotEvery {
				lastSnap = now
				if err := d.writeSnapshot(false); err != nil {
					d.cfg.Logf("moteurd: snapshot: %v", err)
				}
			}
		}

		d.idle(wallStart, virtStart, lastSnap)
	}
}

// idle sleeps until the next wall deadline: the paced instant of the
// next pending event, the next snapshot tick, an injection poke, or
// stop. Unpaced runs with pending events do not sleep at all.
func (d *Daemon) idle(wallStart time.Time, virtStart sim.Time, lastSnap time.Time) {
	paced := d.cfg.Warp > 0
	next, ok := d.eng.NextAt()
	if ok && !paced {
		return // as-fast-as-possible with work pending: no sleep
	}
	var deadline time.Duration
	have := false
	now := d.clock.Now()
	if ok {
		at := wallStart.Add(time.Duration(float64(next-virtStart) / d.cfg.Warp))
		deadline = at.Sub(now)
		have = true
	}
	if d.cfg.SnapshotDir != "" {
		if snap := lastSnap.Add(d.cfg.SnapshotEvery).Sub(now); !have || snap < deadline {
			deadline = snap
			have = true
		}
	}
	if have && deadline <= 0 {
		return // already overdue: go straight back to the drain
	}
	var timer <-chan time.Time
	if have {
		timer = d.clock.After(deadline)
	}
	select {
	case <-d.stop:
	case <-d.wake:
	case <-timer:
	}
}

// finalSnapshot writes the shutdown snapshot (best-effort) when
// snapshots are configured.
func (d *Daemon) finalSnapshot() {
	if d.cfg.SnapshotDir == "" {
		return
	}
	if err := d.writeSnapshot(true); err != nil {
		d.cfg.Logf("moteurd: final snapshot: %v", err)
	}
}
