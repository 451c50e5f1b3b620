package trace

import (
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// traced builds a network with a collector attached and all-accepting sinks.
func traced(t *testing.T) (*noc.Network, *Collector) {
	t.Helper()
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	c := &Collector{}
	n.Observe(c)
	return n, c
}

func send(n *noc.Network, id uint64, typ packet.Type, src, dst int) *packet.Packet {
	p := &packet.Packet{ID: id, Type: typ, Src: src, Dst: dst, Flits: packet.Length(typ)}
	if !n.Inject(p) {
		panic("inject refused")
	}
	return p
}

func TestCollectorLifecycle(t *testing.T) {
	n, c := traced(t)
	send(n, 1, packet.ReadReply, 0, 63)
	if !n.Drain(1000) {
		t.Fatal("packet stuck")
	}
	var injected, ejected, hops int
	for _, e := range c.Events {
		switch e.Kind {
		case Injected:
			injected++
		case Ejected:
			ejected++
		case Hop:
			hops++
		}
	}
	if injected != 1 || ejected != 1 {
		t.Errorf("inject/eject events = %d/%d", injected, ejected)
	}
	// 5 flits x 14 hops.
	if hops != 5*14 {
		t.Errorf("hop events = %d, want 70", hops)
	}
}

func TestCollectorPathMatchesRouting(t *testing.T) {
	n, c := traced(t)
	send(n, 7, packet.ReadRequest, 0, 63)
	n.Drain(1000)
	want := routing.Path(n.Mesh(), routing.MustNew(config.RoutingXY), 0, 63, packet.Request)
	got := c.Path(7)
	if len(got) != len(want) {
		t.Fatalf("path length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hop %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLatencies(t *testing.T) {
	n, c := traced(t)
	send(n, 1, packet.ReadRequest, 0, 7)
	send(n, 2, packet.ReadReply, 0, 63)
	n.Drain(2000)
	lats := c.Latencies()
	if len(lats) != 2 {
		t.Fatalf("latencies = %d", len(lats))
	}
	for _, l := range lats {
		if l.Cycles() <= 0 {
			t.Errorf("packet %d latency %d", l.Packet, l.Cycles())
		}
	}
	// Sorted by ejection: the short 7-hop packet lands first.
	if lats[0].Packet != 1 {
		t.Errorf("ejection order: first = %d", lats[0].Packet)
	}
}

func TestHopHistogram(t *testing.T) {
	n, c := traced(t)
	send(n, 1, packet.ReadRequest, 0, 1)  // 1 hop
	send(n, 2, packet.ReadRequest, 0, 2)  // 2 hops
	send(n, 3, packet.ReadRequest, 8, 10) // 2 hops
	n.Drain(1000)
	hist := c.HopHistogram()
	if hist[1] != 1 || hist[2] != 2 {
		t.Errorf("histogram = %v", hist)
	}
}

func TestHopsOnlyMode(t *testing.T) {
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	c := &Collector{HopsOnly: true}
	n.Observe(c)
	send(n, 1, packet.ReadRequest, 0, 63)
	n.Drain(1000)
	for _, e := range c.Events {
		if e.Kind != Hop {
			t.Fatalf("non-hop event %s in hops-only mode", e.Kind)
		}
	}
}

func TestCSVWriter(t *testing.T) {
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	var b strings.Builder
	cw := NewCSVWriter(&b)
	n.Observe(cw)
	send(n, 9, packet.ReadRequest, 0, 1)
	n.Drain(1000)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "cycle,event,packet,type,src,dst,seq,link_from,link_dir\n") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(out, ",inject,9,READ-REQUEST,0,1,") {
		t.Errorf("missing inject row:\n%s", out)
	}
	if !strings.Contains(out, ",eject,9,") {
		t.Error("missing eject row")
	}
	if !strings.Contains(out, ",hop,9,") {
		t.Error("missing hop row")
	}
	// 1 header + 1 inject + 1 hop + 1 eject.
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("CSV lines = %d, want 4:\n%s", lines, out)
	}
}

func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	run := func(traceOn bool) int64 {
		cfg := config.Default().NoC
		n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
		n.EnableStats(true)
		for i := 0; i < 64; i++ {
			n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
		}
		if traceOn {
			n.Observe(&Collector{})
		}
		for i := uint64(0); i < 50; i++ {
			send(n, i+1, packet.ReadReply, int(i%56), 56+int(i%8))
			n.Step()
		}
		n.Drain(5000)
		_, hot := n.Stats().HottestLink()
		return hot
	}
	if run(false) != run(true) {
		t.Error("tracing changed simulation behaviour")
	}
}

func TestParseCSVRoundTrip(t *testing.T) {
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	var b strings.Builder
	cw := NewCSVWriter(&b)
	live := &Collector{}
	n.Observe(obs.Tee{cw, live})
	send(n, 1, packet.ReadReply, 0, 63)
	send(n, 2, packet.WriteRequest, 10, 60)
	n.Drain(2000)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(live.Events) {
		t.Fatalf("parsed %d events, live saw %d", len(parsed.Events), len(live.Events))
	}
	for i := range parsed.Events {
		if parsed.Events[i] != live.Events[i] {
			t.Fatalf("event %d differs:\nparsed %+v\nlive   %+v", i, parsed.Events[i], live.Events[i])
		}
	}
	// Analyses agree too.
	ps, ls := parsed.Summarize(), live.Summarize()
	if ps.Delivered[packet.ReadReply] != ls.Delivered[packet.ReadReply] ||
		ps.MeanLat[packet.ReadReply] != ls.MeanLat[packet.ReadReply] {
		t.Error("summaries differ between parsed and live collectors")
	}
}

func TestParseCSVErrors(t *testing.T) {
	const hdr = "cycle,event,packet,type,src,dst,seq,link_from,link_dir\n"
	for name, tc := range map[string]struct {
		in   string
		want string // substring the error must carry (line number and cause)
	}{
		"empty":          {"", "line 1"},
		"bad header":     {"a,b,c,d,e,f,g,h,i\n", "line 1"},
		"bad kind":       {hdr + "1,zap,1,READ-REQUEST,0,1,0,,\n", `line 2: unknown event "zap"`},
		"bad cycle":      {hdr + "x,inject,1,READ-REQUEST,0,1,0,,\n", "line 2 cycle"},
		"negative cycle": {hdr + "-7,inject,1,READ-REQUEST,0,1,0,,\n", "line 2: negative cycle -7"},
		"bad type":       {hdr + "1,inject,1,BANANA,0,1,0,,\n", `line 2: unknown type "BANANA"`},
		"bad src":        {hdr + "1,inject,1,READ-REQUEST,zz,1,0,,\n", "line 2 src"},
		"bad direction":  {hdr + "1,hop,1,READ-REQUEST,0,1,0,0,Q\n", `line 2: unknown direction "Q"`},
		"short record":   {hdr + "1,inject,1\n", "line 2"},
		"third line": {hdr + "1,inject,1,READ-REQUEST,0,1,0,,\n" +
			"2,eject,1,BANANA,0,1,0,,\n", "line 3"},
	} {
		_, err := ParseCSV(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestCSVOnDual traces a two-subnet fabric: one subscription observes both
// subnets, so requests (request subnet) and replies (reply subnet) land in
// one CSV that parses back to the live collector's events.
func TestCSVOnDual(t *testing.T) {
	cfg := config.Default().NoC
	cfg.PhysicalSubnets = true
	d := noc.NewDual(cfg, routing.MustNew(cfg.Routing))
	for i := 0; i < 64; i++ {
		d.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	var b strings.Builder
	cw := NewCSVWriter(&b)
	live := &Collector{}
	d.Observe(obs.Tee{cw, live})
	for i, typ := range []packet.Type{packet.ReadRequest, packet.ReadReply, packet.WriteRequest, packet.WriteReply} {
		p := &packet.Packet{ID: uint64(i + 1), Type: typ, Src: i, Dst: 63 - i, Flits: packet.Length(typ)}
		if !d.Inject(p) {
			t.Fatalf("inject %s refused", typ)
		}
	}
	for i := 0; i < 1000 && d.FlitsInFlight() > 0; i++ {
		d.Step()
	}
	if d.FlitsInFlight() != 0 {
		t.Fatal("packets stuck")
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(live.Events) {
		t.Fatalf("parsed %d events, live saw %d", len(parsed.Events), len(live.Events))
	}
	for i := range parsed.Events {
		if parsed.Events[i] != live.Events[i] {
			t.Fatalf("event %d differs:\nparsed %+v\nlive   %+v", i, parsed.Events[i], live.Events[i])
		}
	}
	if lat := parsed.Latencies(); len(lat) != 4 {
		t.Fatalf("%d delivered packets traced, want all 4 (both subnets)", len(lat))
	}
}
