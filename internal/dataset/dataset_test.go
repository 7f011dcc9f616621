package dataset

import (
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<dataset name="bronze-12">
  <input name="referenceImage">
    <item value="gfn://lacassagne/ref0"/>
    <item value="gfn://lacassagne/ref1"/>
  </input>
  <input name="floatingImage">
    <item value="gfn://lacassagne/flo0"/>
    <item value="gfn://lacassagne/flo1"/>
  </input>
</dataset>`

func TestParse(t *testing.T) {
	s, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "bronze-12" {
		t.Errorf("Name = %q", s.Name)
	}
	refs := s.Values("referenceImage")
	if len(refs) != 2 || refs[1] != "gfn://lacassagne/ref1" {
		t.Errorf("referenceImage = %v", refs)
	}
	if got := s.Values("absent"); got != nil {
		t.Errorf("Values(absent) = %v, want nil", got)
	}
	if len(s.Inputs) != 2 || s.Inputs[0].Name != "referenceImage" || s.Inputs[1].Name != "floatingImage" {
		t.Errorf("Inputs = %+v", s.Inputs)
	}
}

func TestMap(t *testing.T) {
	s, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	m := s.Map()
	if len(m) != 2 || len(m["floatingImage"]) != 2 {
		t.Errorf("Map = %v", m)
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if len(s2.Inputs) != 2 || s2.Values("referenceImage")[0] != "gfn://lacassagne/ref0" {
		t.Fatalf("round trip lost data: %+v", s2)
	}
}

func TestValidateDuplicateInput(t *testing.T) {
	bad := `<dataset><input name="a"/><input name="a"/></dataset>`
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate input not rejected: %v", err)
	}
}

func TestValidateEmptyName(t *testing.T) {
	bad := `<dataset><input/></dataset>`
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Fatalf("empty input name not rejected: %v", err)
	}
}

func TestParseMalformed(t *testing.T) {
	if _, err := Parse([]byte("<dataset><input")); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

func TestEmptyInputAllowed(t *testing.T) {
	s, err := Parse([]byte(`<dataset><input name="empty"/></dataset>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Values("empty"); len(got) != 0 {
		t.Fatalf("Values(empty) = %v", got)
	}
}

// xmlSafe reports whether every rune of v is a legal XML 1.0 character;
// the data-set format inherits XML's character repertoire.
func xmlSafe(v string) bool {
	for _, r := range v {
		switch {
		case r == 0x09 || r == 0x0A || r == 0x0D:
		case r >= 0x20 && r <= 0xD7FF:
		case r >= 0xE000 && r <= 0xFFFD:
		case r >= 0x10000 && r <= 0x10FFFF:
		default:
			return false
		}
	}
	return true
}

// Property: Marshal → Parse → Map is the identity on contents.
func TestQuickRoundTripIdentity(t *testing.T) {
	f := func(vals []string) bool {
		// Keep only values the format can legally carry.
		clean := make([]string, 0, len(vals))
		for _, v := range vals {
			if xmlSafe(v) {
				clean = append(clean, v)
			}
		}
		s := &Set{Name: "t", Inputs: []Input{{Name: "a"}, {Name: "b", Items: []Item{{Value: "fixed"}}}}}
		for _, v := range clean {
			s.Inputs[0].Items = append(s.Inputs[0].Items, Item{Value: v})
		}
		data, err := s.Marshal()
		if err != nil {
			return false
		}
		s2, err := Parse(data)
		if err != nil {
			return false
		}
		got := s2.Map()
		if len(got["a"]) != len(clean) {
			return false
		}
		for i := range clean {
			if got["a"][i] != clean[i] {
				return false
			}
		}
		return len(got["b"]) == 1 && got["b"][0] == "fixed"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
