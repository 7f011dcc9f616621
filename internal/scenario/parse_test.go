package scenario

import (
	"errors"
	"testing"
	"time"
)

// TestParseOutage covers the name@start+duration grammar shared by the
// -outage and -se-outage flags, including the open-ended no-recovery
// form, and every malformed shape a sweep invocation can mistype.
func TestParseOutage(t *testing.T) {
	o, err := ParseOutage("grid01@20m+30m")
	if err != nil {
		t.Fatal(err)
	}
	if o.Grid != "grid01" || o.At != 20*time.Minute || o.For != 30*time.Minute {
		t.Fatalf("parsed %+v", o)
	}
	o, err = ParseOutage("g0@1h")
	if err != nil {
		t.Fatal(err)
	}
	if o.Grid != "g0" || o.At != time.Hour || o.For != 0 {
		t.Fatalf("open-ended outage parsed as %+v", o)
	}
	for _, bad := range []string{
		"",            // empty
		"grid01",      // no window
		"@20m+30m",    // empty name
		"g0@+30m",     // empty start
		"g0@20x+30m",  // bad start unit
		"g0@-5m+30m",  // negative start
		"g0@20m+",     // empty duration
		"g0@20m+5x",   // bad duration unit
		"g0@20m+0s",   // zero duration (use the open-ended form)
		"g0@20m+-10m", // negative duration
	} {
		if _, err := ParseOutage(bad); !errors.Is(err, ErrParse) {
			t.Errorf("ParseOutage(%q) = %v, want ErrParse", bad, err)
		}
	}
}

// TestParsePolicy covers every broker policy name and the pinned-index
// range check against the federation size.
func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"ranked", "ranked-blind", "ranked-safe", "backlog", "rr", "pinned:0", "pinned:3"} {
		if p, err := ParsePolicy(name, 4); err != nil || p == nil {
			t.Errorf("ParsePolicy(%q, 4) = %v, %v", name, p, err)
		}
	}
	for _, bad := range []string{
		"",          // empty
		"Ranked",    // case-sensitive
		"random",    // unknown
		"pinned",    // no index
		"pinned:",   // empty index
		"pinned:x",  // non-numeric index
		"pinned:-1", // negative index
		"pinned:4",  // one past the last grid
	} {
		if _, err := ParsePolicy(bad, 4); !errors.Is(err, ErrParse) {
			t.Errorf("ParsePolicy(%q, 4) = %v, want ErrParse", bad, err)
		}
	}
}

// TestParseEviction covers the eviction policy names; an empty name is
// the LRU default, anything unknown is a wrapped parse error.
func TestParseEviction(t *testing.T) {
	for _, name := range []string{"", "lru", "popularity"} {
		if p, err := ParseEviction(name); err != nil || p == nil {
			t.Errorf("ParseEviction(%q) = %v, %v", name, p, err)
		}
	}
	for _, bad := range []string{"LRU", "fifo", "random"} {
		if _, err := ParseEviction(bad); !errors.Is(err, ErrParse) {
			t.Errorf("ParseEviction(%q) = %v, want ErrParse", bad, err)
		}
	}
}
