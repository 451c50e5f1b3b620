package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// TestActiveSetIdleNetworkEmpty: a drained network must have empty active
// sets — that emptiness is exactly what makes idle cycles near-free — and
// further Steps must keep them empty while the cycle counter advances.
func TestActiveSetIdleNetworkEmpty(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	if !n.Inject(mkPacket(1, packet.ReadReply, 0, 63, 0)) {
		t.Fatal("injection refused")
	}
	if !n.Drain(2000) {
		t.Fatal("failed to drain")
	}
	if len(n.active) != 0 || len(n.injActive) != 0 {
		t.Fatalf("drained network still schedules work: %d routers, %d injectors",
			len(n.active), len(n.injActive))
	}
	before := n.Cycle()
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if n.Cycle() != before+100 {
		t.Errorf("idle stepping lost cycles: %d -> %d", before, n.Cycle())
	}
	if len(n.active) != 0 || len(n.injActive) != 0 {
		t.Error("idle stepping re-activated routers")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestActiveSetInvariantUnderLoad holds the scheduling invariant — any
// router or node with work is in its active set, all redundant counters
// recount exactly — after every single cycle of a loaded, backpressured
// run, through drain.
func TestActiveSetInvariantUnderLoad(t *testing.T) {
	n := newTestNet(t, config.RoutingYX, config.VCMonopolized)
	attachCollectors(n)
	r := rng.New(42)
	id := uint64(0)
	for cycle := 0; cycle < 600; cycle++ {
		for k := 0; k < 3; k++ {
			id++
			n.Inject(&packet.Packet{
				ID: id, Type: packet.ReadReply,
				Src: r.Intn(64), Dst: r.Intn(64),
				Flits: packet.LongFlits,
			})
		}
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if !n.Drain(5000) {
		t.Fatalf("failed to drain; %d flits in flight", n.FlitsInFlight())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestActiveSetRefusingSink: a sink that refuses ejection keeps the router
// active (the flit stays buffered) instead of silently retiring it, and
// delivery resumes when the sink relents.
func TestActiveSetRefusingSink(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	accept := false
	var got []packet.Flit
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(f packet.Flit) bool {
			if !accept {
				return false
			}
			got = append(got, f)
			return true
		})
	}
	if !n.Inject(mkPacket(1, packet.ReadRequest, 5, 58, 0)) {
		t.Fatal("injection refused")
	}
	for i := 0; i < 200; i++ {
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if len(got) != 0 {
		t.Fatal("refusing sink received flits")
	}
	if n.FlitsInFlight() == 0 {
		t.Fatal("packet vanished while its sink was refusing it")
	}
	if !n.activeIn[58] {
		t.Fatal("router with an ejection-blocked packet left the active set")
	}
	accept = true
	if !n.Drain(100) {
		t.Fatalf("network did not drain after the sink relented; %d in flight", n.FlitsInFlight())
	}
	if len(got) != packet.Length(packet.ReadRequest) {
		t.Fatalf("got %d flits, want %d", len(got), packet.Length(packet.ReadRequest))
	}
}

// TestStepperEquivalenceNetworkLevel drives the two kernels with an
// identical injection schedule at the Network level and requires identical
// statistics, per-cycle movement, and in-flight occupancy — the fastest
// place to localize a divergence the system-level suite would only report
// wholesale.
func TestStepperEquivalenceNetworkLevel(t *testing.T) {
	variants := []struct {
		rt   config.Routing
		pol  config.VCPolicy
		opts []Option
	}{
		{config.RoutingXY, config.VCSplit, nil},
		{config.RoutingYX, config.VCMonopolized, nil},
		{config.RoutingXYYX, config.VCPartialMonopolized, nil},
		{config.RoutingXY, config.VCSplit, []Option{WithLinkPeriod(2)}},
		{config.RoutingXY, config.VCShared, []Option{WithPipelineDelay(1)}},
	}
	for _, v := range variants {
		t.Run(string(v.rt)+"/"+string(v.pol), func(t *testing.T) {
			opt := newTestNet(t, v.rt, v.pol, v.opts...)
			ref := newTestNet(t, v.rt, v.pol, append([]Option{WithReferenceStepper()}, v.opts...)...)
			attachCollectors(opt)
			attachCollectors(ref)

			inject := func(n *Network, seed uint64) {
				r := rng.New(seed)
				id := uint64(0)
				for cycle := 0; cycle < 800; cycle++ {
					for k := 0; k < 2; k++ {
						id++
						p := &packet.Packet{
							ID: id, Type: packet.ReadReply,
							Src: r.Intn(64), Dst: r.Intn(64),
							Flits: packet.LongFlits, CreatedAt: n.Cycle(),
						}
						n.Inject(p)
					}
					n.Step()
					if err := n.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
				}
			}
			inject(opt, 99)
			inject(ref, 99)
			if opt.FlitsInFlight() != ref.FlitsInFlight() {
				t.Errorf("in-flight diverged: %d vs %d", opt.FlitsInFlight(), ref.FlitsInFlight())
			}
			if opt.lastMove != ref.lastMove {
				t.Errorf("movement tracking diverged: %d vs %d", opt.lastMove, ref.lastMove)
			}
			so, sr := opt.Stats(), ref.Stats()
			if so.InjectedPackets != sr.InjectedPackets || so.EjectedPackets != sr.EjectedPackets {
				t.Errorf("packet accounting diverged: inj %v/%v ej %v/%v",
					so.InjectedPackets, sr.InjectedPackets, so.EjectedPackets, sr.EjectedPackets)
			}
			for c := 0; c < packet.NumClasses; c++ {
				if so.NetLatency[c] != sr.NetLatency[c] || so.TotalLatency[c] != sr.TotalLatency[c] {
					t.Errorf("class %d latency accumulators diverged", c)
				}
				for i := range so.LinkFlits[c] {
					if so.LinkFlits[c][i] != sr.LinkFlits[c][i] {
						t.Fatalf("class %d link %d flit counts diverged", c, i)
					}
				}
			}
			do := opt.Drain(5000)
			dr := ref.Drain(5000)
			if do != dr || opt.FlitsInFlight() != ref.FlitsInFlight() {
				t.Errorf("drain diverged: %v(%d) vs %v(%d)", do, opt.FlitsInFlight(), dr, ref.FlitsInFlight())
			}
		})
	}
}

// TestRouteTablePrecompute: the dense route table must agree with the
// algorithm everywhere (it is built from it, so this guards the indexing),
// and construction above the size bound must fall back to the nil table.
func TestRouteTablePrecompute(t *testing.T) {
	cfg := config.Default().NoC
	alg := routing.MustNew(config.RoutingXYYX)
	n := New(cfg, alg, vc.MustNewPolicy(cfg))
	m := n.Mesh()
	for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
		tab := n.routeTab[cls]
		if tab == nil {
			t.Fatalf("class %v: route table not built for %d nodes", cls, m.NumNodes())
		}
		for cur := 0; cur < m.NumNodes(); cur++ {
			for dst := 0; dst < m.NumNodes(); dst++ {
				want := alg.NextHop(m.Coord(mesh.NodeID(cur)), m.Coord(mesh.NodeID(dst)), cls)
				if got := mesh.Direction(tab[cur*m.NumNodes()+dst]); got != want {
					t.Fatalf("class %v %d->%d: table %v, algorithm %v", cls, cur, dst, got, want)
				}
			}
		}
	}

	big := cfg
	big.Width, big.Height = 40, 40 // 1600 nodes > routeTabMaxNodes
	bn := New(big, alg, vc.MustNewPolicy(big))
	if bn.routeTab[packet.Request] != nil {
		t.Error("route table built past the size bound")
	}
	// The fallback path must still deliver.
	bn.EnableStats(true)
	attachCollectors(bn)
	if !bn.Inject(mkPacket(1, packet.ReadReply, 0, mesh.NodeID(big.Width*big.Height-1), 0)) {
		t.Fatal("injection refused")
	}
	if !bn.Drain(5000) {
		t.Fatal("fallback routing failed to deliver")
	}
}

// TestInjectQueueReuse: sustained injection through a draining queue must
// not grow the backing array — the head-index compaction reuses it.
func TestInjectQueueReuse(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	id := uint64(0)
	// Warm the queue's backing array up to steady state.
	for i := 0; i < 50; i++ {
		id++
		n.Inject(mkPacket(id, packet.WriteRequest, 9, 54, 0))
		n.Step()
	}
	q := &n.inj[9]
	grew := cap(q.pkts)
	for i := 0; i < 2000; i++ {
		id++
		n.Inject(mkPacket(id, packet.WriteRequest, 9, 54, 0))
		n.Step()
	}
	if cap(q.pkts) > grew {
		t.Errorf("injection queue backing array grew under steady-state traffic: %d -> %d", grew, cap(q.pkts))
	}
	if !n.Drain(5000) {
		t.Fatal("failed to drain")
	}
}
