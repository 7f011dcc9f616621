package provenance

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSourceItem(t *testing.T) {
	tr := NewTracker()
	it := tr.Source("referenceImage", 3, "gfn://ref3")
	if it.Value != "gfn://ref3" {
		t.Errorf("Value = %q", it.Value)
	}
	if len(it.Index) != 1 || it.Index[0] != 3 {
		t.Errorf("Index = %v, want [3]", it.Index)
	}
	if it.Key() != "3" {
		t.Errorf("Key = %q, want \"3\"", it.Key())
	}
	if it.History == nil || it.History.Processor != "referenceImage" {
		t.Errorf("history = %+v", it.History)
	}
	if it.History.Depth() != 1 {
		t.Errorf("source depth = %d, want 1", it.History.Depth())
	}
}

func TestIDsUnique(t *testing.T) {
	tr := NewTracker()
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		it := tr.Source("s", i, "v")
		if seen[it.ID] {
			t.Fatalf("duplicate ID %d", it.ID)
		}
		seen[it.ID] = true
	}
}

func TestTrackersIndependent(t *testing.T) {
	a, b := NewTracker(), NewTracker()
	ia := a.Source("s", 0, "x")
	ib := b.Source("s", 0, "x")
	if ia.ID != ib.ID {
		t.Fatalf("fresh trackers disagree on first ID: %d vs %d", ia.ID, ib.ID)
	}
}

func TestDerive(t *testing.T) {
	tr := NewTracker()
	ref := tr.Source("ref", 0, "gfn://r0")
	flo := tr.Source("flo", 0, "gfn://f0")
	out := tr.Derive("crestLines", "c1", "gfn://crest0", []int{0}, ref, flo)
	if out.Key() != "0" {
		t.Errorf("Key = %q", out.Key())
	}
	h := out.History
	if h.Processor != "crestLines" || h.Port != "c1" || len(h.Inputs) != 2 {
		t.Errorf("history = %+v", h)
	}
	if h.Depth() != 2 {
		t.Errorf("depth = %d, want 2", h.Depth())
	}
}

func TestRender(t *testing.T) {
	tr := NewTracker()
	ref := tr.Source("ref", 1, "r")
	flo := tr.Source("flo", 1, "f")
	crest := tr.Derive("crestLines", "c1", "c", []int{1}, ref, flo)
	match := tr.Derive("crestMatch", "t", "m", []int{1}, crest, ref)
	got := match.History.Render()
	want := "crestMatch:t[1]( crestLines:c1[1]( ref[1], flo[1] ), ref[1] )"
	if got != want {
		t.Errorf("Render =\n  %s\nwant\n  %s", got, want)
	}
}

func TestSources(t *testing.T) {
	tr := NewTracker()
	ref := tr.Source("ref", 2, "r")
	flo := tr.Source("flo", 2, "f")
	crest := tr.Derive("crestLines", "c1", "c", []int{2}, ref, flo)
	match := tr.Derive("crestMatch", "t", "m", []int{2}, crest, ref)
	got := match.History.Sources()
	if len(got) != 2 || got[0] != "ref[2]" || got[1] != "flo[2]" {
		t.Errorf("Sources = %v, want [ref[2] flo[2]] (deduplicated, first-visit order)", got)
	}
}

func TestKeyForms(t *testing.T) {
	cases := []struct {
		idx  []int
		want string
	}{
		{nil, "*"},
		{[]int{}, "()"},
		{[]int{0}, "0"},
		{[]int{1, 2}, "1.2"},
		{[]int{10, 0, 3}, "10.0.3"},
	}
	for _, c := range cases {
		if got := Key(c.idx); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.idx, got, c.want)
		}
	}
}

func TestItemString(t *testing.T) {
	tr := NewTracker()
	it := tr.Source("s", 4, "gfn://x")
	if got := it.String(); got != "gfn://x[4]" {
		t.Errorf("String = %q", got)
	}
}

func TestDeepChainDepth(t *testing.T) {
	tr := NewTracker()
	cur := tr.Source("s", 0, "v0")
	for i := 1; i <= 10; i++ {
		cur = tr.Derive("p", "out", "v", []int{0}, cur)
	}
	if d := cur.History.Depth(); d != 11 {
		t.Fatalf("depth = %d, want 11", d)
	}
}

// Property: Key is injective over small index vectors (distinct vectors
// yield distinct keys).
func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		ai := make([]int, len(a))
		bi := make([]int, len(b))
		for i, v := range a {
			ai[i] = int(v)
		}
		for i, v := range b {
			bi[i] = int(v)
		}
		// nil/empty ambiguity is handled by dedicated forms; skip nil here.
		if len(ai) == 0 || len(bi) == 0 {
			return true
		}
		equal := len(ai) == len(bi)
		if equal {
			for i := range ai {
				if ai[i] != bi[i] {
					equal = false
					break
				}
			}
		}
		return (Key(ai) == Key(bi)) == equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rendering contains every ancestor processor name.
func TestQuickRenderContainsAncestors(t *testing.T) {
	f := func(n uint8) bool {
		depth := int(n%8) + 1
		tr := NewTracker()
		cur := tr.Source("s0", 0, "v")
		for i := 1; i < depth; i++ {
			cur = tr.Derive("p", "out", "v", []int{0}, cur)
		}
		r := cur.History.Render()
		return strings.Contains(r, "s0[0]") && strings.Count(r, "p:out[0]") == depth-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
