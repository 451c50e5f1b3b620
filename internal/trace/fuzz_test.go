package trace

import (
	"strings"
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
)

// FuzzParseCSV feeds arbitrary bytes to the packet-trace reader. It must
// never panic, and whatever it accepts must survive a trip through the CSV
// writer: re-emitting the parsed events and parsing again yields the same
// events, up to what the format's writer leaves implicit (an injection row
// always carries sequence 0).
func FuzzParseCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ParseCSV(strings.NewReader(string(in)))
		if err != nil {
			return
		}
		var b strings.Builder
		cw := NewCSVWriter(&b)
		for _, e := range c.Events {
			p := &packet.Packet{ID: e.Packet, Type: e.Type, Src: e.Src, Dst: e.Dst, Flits: e.Seq + 1}
			o := obs.Observation{Cycle: e.Cycle, Flit: packet.Flit{Pkt: p, Seq: e.Seq, Head: true, Tail: true}}
			switch e.Kind {
			case Injected:
				o.Kind = obs.EvInjected
			case Hop:
				o.Kind, o.Node, o.Dir = obs.EvHop, int(e.Link.From), e.Link.Dir
			case Ejected:
				o.Kind = obs.EvEjected
			}
			cw.Observe(&o)
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ParseCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("writer output does not parse: %v\n%s", err, b.String())
		}
		if len(again.Events) != len(c.Events) {
			t.Fatalf("round trip kept %d of %d events", len(again.Events), len(c.Events))
		}
		for i, want := range c.Events {
			if want.Kind == Injected {
				want.Seq = 0
			}
			if want.Kind != Hop {
				want.Link = mesh.Link{}
			}
			if again.Events[i] != want {
				t.Fatalf("event %d: round trip %+v, want %+v", i, again.Events[i], want)
			}
		}
	})
}
