package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// The zero-allocation contracts the hotpath analyzer proves statically are
// pinned dynamically here with testing.AllocsPerRun: the VC ring operations
// and the steady-state cycle kernel must not allocate once the amortized
// backing arrays have grown to their working size.

func TestRingOpsDoNotAllocate(t *testing.T) {
	r := newRing(8)
	fl := flit(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			r.push(fl, int64(i))
		}
		for i := 0; i < 8; i++ {
			_ = r.front()
			_ = r.frontArrived()
			_ = r.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("ring push/front/pop allocated %.1f times per run, want 0", allocs)
	}
}

func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	for i := 0; i < n.Mesh().NumNodes(); i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}

	// Pre-build every packet the run will inject so the traffic source
	// itself contributes no allocations to the measurement.
	nodes := n.Mesh().NumNodes()
	pool := make([]*packet.Packet, 0, 6000)
	for i := 0; len(pool) < cap(pool); i++ {
		src := mesh.NodeID(i % nodes)
		dst := mesh.NodeID((i*7 + 13) % nodes)
		if src == dst {
			continue
		}
		pool = append(pool, mkPacket(uint64(i+1), packet.ReadReply, src, dst, 0))
	}
	next := 0
	drive := func(cycles int) {
		for c := 0; c < cycles; c++ {
			for s := 0; s < 8 && next < len(pool); s++ {
				p := pool[next]
				if n.InjectSpace(mesh.NodeID(p.Src)) >= p.Flits {
					if n.Inject(p) {
						next++
					}
				} else {
					break
				}
			}
			n.Step()
		}
	}

	// Warmup grows the active sets, outboxes and telemetry-free scratch
	// arenas to steady-state capacity.
	drive(400)

	allocs := testing.AllocsPerRun(4, func() { drive(100) })
	if allocs != 0 {
		t.Errorf("steady-state Step allocated %.1f times per run, want 0", allocs)
	}
}
