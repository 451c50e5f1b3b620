package noc

import (
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/vc"
)

// inputVC is one virtual channel at a router input port. The front packet's
// routing state lives here: wormhole switching routes per packet, and flits
// of at most one packet are in flight through the switch from a VC at a time.
type inputVC struct {
	buf    ring
	routed bool           // front packet's route computed
	route  mesh.Direction // output port of the front packet
	cls    packet.Class   // front packet's class, cached at route compute
	outVC  int            // allocated downstream VC, -1 if none
}

const noOwner = -1

// outPort is a router output port: the downstream credit state per VC, the
// VC ownership table, and the single-flit link register feeding the
// downstream router.
type outPort struct {
	exists   bool
	downNode mesh.NodeID    // downstream router
	downPort mesh.Direction // input port at the downstream router
	orient   mesh.Orientation

	credits []int                       // free downstream buffer slots per VC
	pending []int                       // credits returned this cycle, applied in the credit phase
	dirty   bool                        // on Network.creditDirty, pending not yet applied
	owner   []int                       // per VC: owning input (port*V + vc) or noOwner
	rng     [packet.NumClasses]vc.Range // per-class allowed VCs on this link

	reg        packet.Flit // flit traversing the link
	regVC      int
	regValid   bool
	regReadyAt int64 // cycle the flit completes link traversal
}

// router is one 5-port VC router. The microarchitecture follows Section 2.2:
// two pipeline stages (RC+VA+SA, then ST) with lookahead-style single-cycle
// route computation, separable round-robin VC and switch allocation, and
// credit-based flow control.
//
// The occupancy counters (bufFlits, portFlits, regCount, demand, vaReq) are
// redundant summaries of buffer and pipeline state, maintained at every
// push/pop/grant site. They exist so the cycle kernel can skip provably idle
// work: an empty port never enters the allocation scans, an undemanded
// output never arbitrates, and a router with bufFlits == 0 and
// regCount == 0 drops out of the active set entirely. CheckInvariants
// recounts all of them from first principles.
type router struct {
	id    mesh.NodeID
	coord mesh.Coord

	in  [mesh.NumPorts][]inputVC
	out [mesh.NumPorts]outPort

	bufFlits  int                     // flits buffered across all input VCs
	portFlits [mesh.NumPorts]int      // flits buffered per input port
	regCount  int                     // occupied output link registers
	demand    [mesh.NumPorts]int      // routed input VCs targeting each output
	vaReq     int                     // routed non-local input VCs awaiting an output VC
	upstream  [mesh.NumPorts]*outPort // output port feeding each input port (nil for Local)

	// Round-robin pointers for fair, deterministic arbitration.
	vaPtr   [mesh.NumPorts]int // per output port, over input (port*V+vc)
	saVCPtr [mesh.NumPorts]int // per input port, over its VCs
	saPtr   [mesh.NumPorts]int // per output port, over input ports

	// reqScratch collects VA requesters per output direction each cycle,
	// avoiding a full input scan per output VC.
	reqScratch [mesh.NumLinkDirs][]int
}

// routerArena backs every router's per-VC state — input-VC descriptors,
// ring-buffer storage, credit/pending/owner tables, VA scratch — with a
// handful of contiguous allocations carved in router-ID order, so the
// kernel's ascending walk touches dense blocks instead of thousands of
// individually allocated slices.
type routerArena struct {
	vcs     []inputVC
	flits   []bufFlit
	ints    []int
	scratch []int
}

func newRouterArena(nodes, vcs, depth int) *routerArena {
	return &routerArena{
		vcs:     make([]inputVC, nodes*mesh.NumPorts*vcs),
		flits:   make([]bufFlit, nodes*mesh.NumPorts*vcs*depth),
		ints:    make([]int, nodes*mesh.NumLinkDirs*vcs*3),
		scratch: make([]int, nodes*mesh.NumLinkDirs*mesh.NumPorts*vcs),
	}
}

func (a *routerArena) takeVCs(k int) []inputVC {
	s := a.vcs[:k:k]
	a.vcs = a.vcs[k:]
	return s
}

func (a *routerArena) takeFlits(k int) []bufFlit {
	s := a.flits[:k:k]
	a.flits = a.flits[k:]
	return s
}

func (a *routerArena) takeInts(k int) []int {
	s := a.ints[:k:k]
	a.ints = a.ints[k:]
	return s
}

func (a *routerArena) takeScratch(k int) []int {
	s := a.scratch[:0:k]
	a.scratch = a.scratch[k:]
	return s
}

func (rt *router) init(id mesh.NodeID, m mesh.Mesh, vcs, depth int, ar *routerArena) {
	rt.id = id
	rt.coord = m.Coord(id)
	for p := 0; p < mesh.NumPorts; p++ {
		rt.in[p] = ar.takeVCs(vcs)
		for v := range rt.in[p] {
			rt.in[p][v] = inputVC{buf: newRingFrom(ar.takeFlits(depth)), outVC: -1}
		}
	}
	for d := mesh.North; d < mesh.Local; d++ {
		n, ok := m.Neighbor(rt.coord, d)
		if !ok {
			continue
		}
		op := &rt.out[d]
		op.exists = true
		op.downNode = m.ID(n)
		op.downPort = d.Opposite()
		op.orient = d.Orientation()
		op.credits = ar.takeInts(vcs)
		op.pending = ar.takeInts(vcs)
		op.owner = ar.takeInts(vcs)
		for v := range op.credits {
			op.credits[v] = depth
			op.owner[v] = noOwner
		}
	}
	// The local output port ejects to the attached node; it has no VCs or
	// credits — the node's sink callback provides backpressure.
	rt.out[mesh.Local] = outPort{exists: true, downNode: id, downPort: mesh.Local, orient: mesh.LocalPort}
	for d := range rt.reqScratch {
		rt.reqScratch[d] = ar.takeScratch(mesh.NumPorts * vcs)
	}
}

// routeCompute runs RC for every input VC whose front flit is an unrouted
// head.
func (n *Network) routeCompute(rt *router) {
	for p := 0; p < mesh.NumPorts; p++ {
		if rt.portFlits[p] == 0 {
			continue
		}
		for v := range rt.in[p] {
			ivc := &rt.in[p][v]
			if ivc.routed || ivc.buf.len() == 0 {
				continue
			}
			f := &ivc.buf.front().flit
			if !f.Head {
				// A body flit at the front of an unrouted VC means the
				// head already left and released state — impossible under
				// wormhole discipline.
				panic("noc: body flit at front of unrouted VC")
			}
			cls := f.Pkt.Class()
			if tab := n.routeTab[cls]; tab != nil {
				ivc.route = mesh.Direction(tab[int(rt.id)*n.numNodes+int(f.Pkt.Dst)])
			} else {
				ivc.route = n.alg.NextHop(rt.coord, n.m.Coord(mesh.NodeID(f.Pkt.Dst)), cls)
			}
			ivc.cls = cls
			ivc.routed = true
			rt.demand[ivc.route]++
			if ivc.route != mesh.Local {
				rt.vaReq++
			}
		}
	}
}

// vcAllocate runs separable VC allocation: each free output VC is granted to
// at most one requesting input VC whose policy range admits it, in
// round-robin order over inputs.
func (n *Network) vcAllocate(rt *router) {
	if rt.vaReq == 0 {
		return
	}
	V := n.vcs
	total := mesh.NumPorts * V
	// Gather requesters once: input VCs whose front flit is a routed head
	// awaiting an output VC.
	for d := range rt.reqScratch {
		rt.reqScratch[d] = rt.reqScratch[d][:0]
	}
	for p := 0; p < mesh.NumPorts; p++ {
		if rt.portFlits[p] == 0 {
			continue
		}
		for v := 0; v < V; v++ {
			ivc := &rt.in[p][v]
			if !ivc.routed || ivc.outVC != -1 || ivc.route == mesh.Local || ivc.buf.len() == 0 {
				continue
			}
			if !ivc.buf.front().flit.Head {
				continue
			}
			// Pack (input index, class) into one word so the grant scan
			// below needs no division or buffer access per requester.
			rt.reqScratch[ivc.route] = append(rt.reqScratch[ivc.route], (p*V+v)<<1|int(ivc.cls)) //noclint:hotpath amortized: scratch is arena-backed with capacity for every (port, VC) pair
		}
	}
	for d := mesh.North; d < mesh.Local; d++ {
		op := &rt.out[d]
		reqs := rt.reqScratch[d]
		if !op.exists || len(reqs) == 0 {
			continue
		}
		for ovc := 0; ovc < V; ovc++ {
			if op.owner[ovc] != noOwner {
				continue
			}
			// Grant to the eligible requester closest after the round-robin
			// pointer.
			bestK, bestDist := -1, total+1
			for k, code := range reqs {
				if code < 0 {
					continue
				}
				if !op.rng[packet.Class(code&1)].Contains(ovc) {
					continue
				}
				dist := code>>1 - rt.vaPtr[d]
				if dist < 0 {
					dist += total
				}
				if dist < bestDist {
					bestK, bestDist = k, dist
				}
			}
			if bestK < 0 {
				continue
			}
			idx := reqs[bestK] >> 1
			op.owner[ovc] = idx
			rt.in[idx/V][idx%V].outVC = ovc
			rt.vaReq--
			if n.spans != nil {
				if pkt := rt.in[idx/V][idx%V].buf.front().flit.Pkt; pkt.Sampled {
					n.spans.VCGrant(pkt, int(rt.id), int(op.downNode), ovc, n.cycle)
				}
			}
			reqs[bestK] = -1 // granted; no second VC this cycle
			rt.vaPtr[d] = idx + 1
			if rt.vaPtr[d] == total {
				rt.vaPtr[d] = 0
			}
		}
	}
}

// The requester packing above keeps the class in the low bit; this fails to
// compile if the class space ever outgrows it.
var _ [2 - packet.NumClasses]struct{}

// switchAllocateAndTraverse runs SA and ST: each output port grants at most
// one flit per cycle, each input port sends at most one flit per cycle, and
// arbitration is round-robin over (input port, VC) pairs. A sink refusal
// (full MC queue) does not mask other candidates — the scan continues with
// the remaining VCs and ports, which is essential to avoid artificial
// wedging when an ejection-blocked packet shares a port with through
// traffic.
//
// Output ports with no routed demand and input ports with no buffered flits
// are skipped outright; both gates eliminate only scans that could not have
// granted anything, so arbitration order is unchanged.
func (n *Network) switchAllocateAndTraverse(rt *router) {
	V := n.vcs
	var usedInput [mesh.NumPorts]bool
	var movedVC [mesh.NumPorts]int
	for p := range movedVC {
		movedVC[p] = -1
	}
	for d := mesh.Direction(0); d < mesh.NumPorts; d++ {
		if rt.demand[d] == 0 {
			continue
		}
		op := &rt.out[d]
		if !op.exists {
			continue
		}
		local := d == mesh.Local
		if !local && op.regValid {
			continue
		}
	grant:
		for k := 0; k < mesh.NumPorts; k++ {
			p := rt.saPtr[d] + k
			if p >= mesh.NumPorts {
				p -= mesh.NumPorts
			}
			if usedInput[p] || rt.portFlits[p] == 0 {
				continue
			}
			vcs := rt.in[p]
			for j := 0; j < V; j++ {
				v := rt.saVCPtr[p] + j
				if v >= V {
					v -= V
				}
				// Sendability, ignoring switch contention (which this scan
				// resolves): a routed front flit past the pipeline delay,
				// holding an output VC with a downstream credit — or, for
				// ejection, a present sink; the final say then belongs to
				// the sink at traversal time.
				ivc := &vcs[v]
				if ivc.buf.n == 0 || !ivc.routed || ivc.route != d {
					continue
				}
				if n.cycle < ivc.buf.buf[ivc.buf.head].arrived+n.pipeDelay {
					continue // still in the first pipeline stage
				}
				if local {
					if n.sinks[rt.id] == nil {
						continue
					}
				} else if ivc.outVC == -1 || op.credits[ivc.outVC] == 0 {
					continue
				}
				if !n.traverse(rt, p, v, d) {
					continue // sink refused this packet; try the next VC
				}
				usedInput[p] = true
				movedVC[p] = v
				rt.saPtr[d] = p + 1
				if rt.saPtr[d] == mesh.NumPorts {
					rt.saPtr[d] = 0
				}
				rt.saVCPtr[p] = v + 1
				if rt.saVCPtr[p] == V {
					rt.saVCPtr[p] = 0
				}
				break grant
			}
		}
	}
	if n.tel != nil || n.spans != nil {
		n.countStalls(rt, &movedVC)
	}
}

// countStalls attributes, once per cycle per stalled input VC, why its front
// flit did not move: no output VC granted (VC allocation), an allocated VC
// with no downstream credits (credit), or a ready flit that lost the switch
// or found the link register occupied (route). Flits still inside the
// pipeline delay and ejection-blocked flits are not charged. The same
// attribution feeds the aggregate telemetry counters and, for sampled
// packets, the per-packet span events; observability-only — runs after SA
// so "moved this cycle" is known exactly.
func (n *Network) countStalls(rt *router, movedVC *[mesh.NumPorts]int) {
	for p := 0; p < mesh.NumPorts; p++ {
		if rt.portFlits[p] == 0 {
			continue
		}
		for v := range rt.in[p] {
			ivc := &rt.in[p][v]
			if ivc.buf.len() == 0 || !ivc.routed || ivc.route == mesh.Local {
				continue
			}
			if movedVC[p] == v {
				continue // progressed this cycle
			}
			if n.cycle < ivc.buf.frontArrived()+n.pipeDelay {
				continue // still in the first pipeline stage
			}
			var cause obs.StallCause
			switch {
			case ivc.outVC == -1:
				cause = obs.StallVCAlloc
			case rt.out[ivc.route].credits[ivc.outVC] == 0:
				cause = obs.StallCredit
			default:
				cause = obs.StallRoute
			}
			if n.tel != nil {
				switch cause {
				case obs.StallVCAlloc:
					n.tel.StallVCAlloc.Inc()
				case obs.StallCredit:
					n.tel.StallCredit.Inc()
				default:
					n.tel.StallRoute.Inc()
				}
			}
			if n.spans != nil {
				if pkt := ivc.buf.front().flit.Pkt; pkt.Sampled {
					n.spans.Stall(pkt, int(rt.id), cause, n.cycle)
				}
			}
		}
	}
}

// traverse moves the front flit of input VC (p,v) through output d. It
// returns false when a sink refuses the flit (ejection only); nothing moves
// in that case.
func (n *Network) traverse(rt *router, p, v int, d mesh.Direction) bool {
	ivc := &rt.in[p][v]
	if d == mesh.Local {
		front := &ivc.buf.front().flit
		if front.Tail {
			// Stamp before the sink sees the tail: endpoints (the MC) read
			// EjectedAt inside the sink callback to capture the request
			// phase's timeline. A refusal leaves an early stamp behind,
			// which the successful retry overwrites.
			front.Pkt.EjectedAt = n.cycle
		}
		if !n.sinkAccept(rt.id, *front) {
			return false
		}
	}
	bf := ivc.buf.pop()
	f := bf.flit
	rt.bufFlits--
	rt.portFlits[p]--

	// Return a credit upstream for the freed buffer slot (not for the
	// injection port: the injection queue tracks its own space).
	if p != int(mesh.Local) {
		n.queueCredit(rt, mesh.Direction(p), v)
	}

	if d == mesh.Local {
		n.inFlight--
		if n.tel != nil {
			n.tel.EjFlits[rt.id].Inc()
		}
		if f.Tail {
			n.stats.CountEjection(f.Pkt)
			if n.tracer != nil {
				n.tracer.PacketEjected(f.Pkt, n.cycle)
			}
			if n.tel != nil {
				n.tel.PacketEjected(f.Pkt, n.cycle)
			}
			if n.spans != nil && f.Pkt.Sampled {
				n.spans.Ejected(f.Pkt, n.cycle)
			}
		}
	} else {
		op := &rt.out[d]
		op.credits[ivc.outVC]--
		op.reg = f
		op.regVC = ivc.outVC
		op.regValid = true
		op.regReadyAt = n.cycle + n.linkPeriod - 1
		rt.regCount++
		n.stats.CountLink(mesh.Link{From: rt.id, Dir: d}, f.Pkt.Class())
		if n.tracer != nil {
			n.tracer.FlitHop(f, mesh.Link{From: rt.id, Dir: d}, n.cycle)
		}
		if n.tel != nil {
			n.tel.LinkFlits[f.Pkt.Class()][n.m.LinkIndex(mesh.Link{From: rt.id, Dir: d})].Inc()
		}
		if n.spans != nil && f.Head && f.Pkt.Sampled {
			n.spans.Hop(f.Pkt, int(rt.id), int(op.downNode), ivc.outVC, n.cycle)
		}
	}

	if f.Tail {
		// Release the output VC and the per-packet routing state.
		rt.demand[d]--
		if d != mesh.Local {
			rt.out[d].owner[ivc.outVC] = noOwner
		}
		ivc.routed = false
		ivc.outVC = -1
	}
	n.moved = true
	return true
}
