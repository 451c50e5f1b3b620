package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadSpans feeds arbitrary bytes to the span-log reader. It must
// never panic (nor trust the header's trace count), and whatever it
// accepts must survive a trip through the span-log writer unchanged.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		log, err := ReadSpans(bytes.NewReader(in))
		if err != nil {
			return
		}
		s := &Spans{seed: log.Seed, rate: log.Rate, byID: map[uint64]*PacketTrace{}, order: log.Traces}
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSpans(&buf)
		if err != nil {
			t.Fatalf("writer output does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, log) {
			t.Fatalf("round trip changed the log:\n got %+v\nwant %+v", again, log)
		}
	})
}
