package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
)

// TestStateSnapshotConservationUnderSaturation drives a hotspot pattern
// (every node hammering one corner) until the fabric saturates, snapshotting
// at every cycle boundary. Each snapshot must satisfy both the kernel's own
// invariants and the snapshot-level conservation check: the flits visible in
// the snapshot's buffers/registers equal the reported in-flight count. A
// mismatch would mean StateSnapshot reads the kernel mid-phase (torn read).
func TestStateSnapshotConservationUnderSaturation(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	// Sink at the hotspot refuses everything: maximal backpressure.
	hot := mesh.NodeID(0)
	n.SetSink(hot, func(packet.Flit) bool { return false })

	id := uint64(1)
	for cycle := 0; cycle < 400; cycle++ {
		for src := 1; src < n.Mesh().NumNodes(); src += 7 {
			p := mkPacket(id, packet.ReadRequest, mesh.NodeID(src), hot, int64(cycle))
			if n.Inject(p) {
				id++
			}
		}
		n.Step()

		st := n.StateSnapshot()
		if st.Cycle != n.Cycle() {
			t.Fatalf("snapshot cycle %d != network cycle %d", st.Cycle, n.Cycle())
		}
		if st.InFlight != n.FlitsInFlight() {
			t.Fatalf("cycle %d: snapshot in-flight %d != network %d", cycle, st.InFlight, n.FlitsInFlight())
		}
		if err := st.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if n.FlitsInFlight() == 0 {
		t.Fatal("hotspot load never saturated the fabric; the test exercised nothing")
	}
}

// TestDualStateSnapshot verifies the two-subnet snapshot: disjoint subnet
// names, per-subnet conservation, and a mesh total that sums the two.
func TestDualStateSnapshot(t *testing.T) {
	cfg := config.Default().NoC
	cfg.PhysicalSubnets = true
	d := NewDual(cfg, routing.MustNew(config.RoutingXY))
	for i := 0; i < d.request.Mesh().NumNodes(); i++ {
		d.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return false })
	}
	id := uint64(1)
	for cycle := 0; cycle < 100; cycle++ {
		d.Inject(mkPacket(id, packet.ReadRequest, mesh.NodeID(int(id)%63+1), 0, int64(cycle)))
		id++
		d.Inject(mkPacket(id, packet.ReadReply, 0, mesh.NodeID(int(id)%63+1), int64(cycle)))
		id++
		d.Step()
	}
	st := d.StateSnapshot()
	if len(st.Subnets) != 2 || st.Subnets[0].Subnet != "req" || st.Subnets[1].Subnet != "rep" {
		t.Fatalf("want req+rep subnets, got %+v", st.Subnets)
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if st.InFlight != d.FlitsInFlight() || st.InFlight == 0 {
		t.Fatalf("mesh in-flight %d (network %d): want non-zero and equal", st.InFlight, d.FlitsInFlight())
	}
	if st.Subnets[0].InFlight == 0 || st.Subnets[1].InFlight == 0 {
		t.Fatalf("both subnets should hold flits: %d / %d", st.Subnets[0].InFlight, st.Subnets[1].InFlight)
	}
}

// TestNetworkSpanProbesRecordJourney wires a span collector at rate 1 into
// a bare network and checks a delivered packet's trace holds the full
// milestone sequence with hop count matching the XY route.
func TestNetworkSpanProbesRecordJourney(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	sp, err := obs.NewSpans(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.Observe(sp)

	p := mkPacket(1, packet.ReadRequest, 0, 63, 0)
	if !n.Inject(p) {
		t.Fatal("injection refused")
	}
	for i := 0; i < 200 && n.FlitsInFlight() > 0; i++ {
		n.Step()
	}
	if n.FlitsInFlight() != 0 {
		t.Fatal("packet not delivered")
	}
	if sp.NumTraces() != 1 {
		t.Fatalf("traces = %d, want 1", sp.NumTraces())
	}
	tr := sp.Traces()[0]
	if _, ok := tr.Find(obs.EvCreated); !ok {
		t.Error("trace missing created event")
	}
	inj, ok := tr.Find(obs.EvInjected)
	if !ok || inj.Cycle != p.InjectedAt {
		t.Errorf("injected event %+v does not match InjectedAt %d", inj, p.InjectedAt)
	}
	ej, ok := tr.Find(obs.EvEjected)
	if !ok || ej.Cycle != p.EjectedAt {
		t.Errorf("ejected event %+v does not match EjectedAt %d", ej, p.EjectedAt)
	}
	hops := 0
	for _, e := range tr.Events {
		if e.Kind == obs.EvHop {
			hops++
		}
	}
	// XY route 0 -> 63 on the 8x8 mesh: 7 east + 7 south = 14 link hops.
	if hops != 14 {
		t.Errorf("hops = %d, want 14", hops)
	}
}
