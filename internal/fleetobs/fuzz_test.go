package fleetobs

import (
	"bytes"
	"testing"
)

// FuzzReadDump feeds arbitrary bytes to the flight-dump reader. It must
// never panic, and the content of whatever it accepts must survive a trip
// through a recorder and its dump writer: the same header strings and the
// same events in order (renumbered from 0, as a fresh recorder numbers
// them).
func FuzzReadDump(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		hdr, events, err := ReadDump(bytes.NewReader(in))
		if err != nil {
			return
		}
		r := NewRecorder(len(events))
		for _, e := range events {
			r.Record(e.Cycle, e.Kind, e.A, e.B, e.C)
		}
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf, hdr.Source, hdr.Reason); err != nil {
			t.Fatal(err)
		}
		hdr2, again, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("writer output does not parse: %v", err)
		}
		if hdr2.Source != hdr.Source || hdr2.Reason != hdr.Reason || hdr2.Recorded != uint64(len(events)) || hdr2.Dropped != 0 {
			t.Fatalf("header round trip %+v from %+v with %d events", hdr2, hdr, len(events))
		}
		if len(again) != len(events) {
			t.Fatalf("round trip kept %d of %d events", len(again), len(events))
		}
		for i, want := range events {
			want.Seq = uint64(i)
			if again[i] != want {
				t.Fatalf("event %d: round trip %+v, want %+v", i, again[i], want)
			}
		}
	})
}
