package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
)

// ErrParse marks a malformed scenario fragment (an outage window given
// on the command line, a broker or eviction policy name); callers
// distinguish user input errors from world-construction failures with
// errors.Is.
var ErrParse = errors.New("scenario: parse error")

// ParseOutage reads a name@start+duration outage window ("+duration" is
// optional: without it the grid never recovers). It is the parser behind
// the -outage and -se-outage overrides of cmd/federation.
func ParseOutage(s string) (federation.Outage, error) {
	name, window, ok := strings.Cut(s, "@")
	if !ok || name == "" {
		return federation.Outage{}, fmt.Errorf("%w: want name@start+duration, got %q", ErrParse, s)
	}
	start, dur, recovers := strings.Cut(window, "+")
	at, err := time.ParseDuration(start)
	if err != nil {
		return federation.Outage{}, fmt.Errorf("%w: bad start in %q: %w", ErrParse, s, err)
	}
	if at < 0 {
		return federation.Outage{}, fmt.Errorf("%w: negative start in %q", ErrParse, s)
	}
	o := federation.Outage{Grid: name, At: at}
	if recovers {
		if o.For, err = time.ParseDuration(dur); err != nil {
			return federation.Outage{}, fmt.Errorf("%w: bad duration in %q: %w", ErrParse, s, err)
		}
		if o.For <= 0 {
			return federation.Outage{}, fmt.Errorf("%w: non-positive duration in %q", ErrParse, s)
		}
	}
	return o, nil
}

// ParsePolicy resolves a broker policy name (ranked, ranked-blind,
// ranked-safe, backlog, rr, pinned:N), rejecting a pinned index outside
// the grids-member federation — Pinned would clamp it to grid 0 and a
// sweep row would silently describe a different experiment.
func ParsePolicy(name string, grids int) (federation.Policy, error) {
	switch {
	case name == "ranked":
		return federation.Ranked(), nil
	case name == "ranked-blind":
		return federation.RankedLocalityBlind(), nil
	case name == "ranked-safe":
		return federation.RankedSafe(), nil
	case name == "backlog":
		return federation.LeastBacklog(), nil
	case name == "rr":
		return federation.RoundRobin(), nil
	case strings.HasPrefix(name, "pinned:"):
		idx, err := strconv.Atoi(strings.TrimPrefix(name, "pinned:"))
		if err != nil {
			return nil, fmt.Errorf("%w: bad pinned index in %q: %w", ErrParse, name, err)
		}
		if idx < 0 || idx >= grids {
			return nil, fmt.Errorf("%w: pinned index %d outside the %d-grid federation", ErrParse, idx, grids)
		}
		return federation.Pinned(idx), nil
	}
	return nil, fmt.Errorf("%w: unknown policy %q (want ranked|ranked-blind|ranked-safe|backlog|rr|pinned:N)", ErrParse, name)
}

// ParseEviction resolves an eviction policy name (lru, popularity).
func ParseEviction(name string) (grid.EvictionPolicy, error) {
	switch name {
	case "", "lru":
		return grid.EvictLRU(), nil
	case "popularity":
		return grid.EvictPopularity(), nil
	}
	return nil, fmt.Errorf("%w: unknown eviction policy %q (want lru|popularity)", ErrParse, name)
}
