package descriptor

import (
	"reflect"
	"testing"
)

// FuzzParseDescriptor feeds descriptor documents to Parse, seeded with
// the paper's Fig. 8 and, from testdata/fuzz/FuzzParseDescriptor, the
// bronze application's seven descriptors. The property: no input panics,
// and every accepted descriptor re-parses from its own Marshal output to
// the same description. Run it with
// go test ./internal/descriptor -run '^$' -fuzz FuzzParseDescriptor -fuzztime 10s
func FuzzParseDescriptor(f *testing.F) {
	f.Add([]byte(figure8))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		out, err := d.Marshal()
		if err != nil {
			t.Fatalf("accepted descriptor does not marshal: %v", err)
		}
		d2, err := Parse(out)
		if err != nil {
			t.Fatalf("marshalled descriptor does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip changed the descriptor:\n%+v\n%+v", d.Executable, d2.Executable)
		}
	})
}
