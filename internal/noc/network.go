// Package noc implements the cycle-level 2D-mesh network-on-chip: wormhole
// switching, virtual channels with credit-based flow control, the two-stage
// router pipeline of Section 2.2, and pluggable routing algorithms and VC
// partitioning policies.
//
// The network moves packet.Flit values between endpoint queues. Endpoints
// (SM cores, memory controllers, or synthetic harnesses) inject whole
// packets and receive flits through per-node sink callbacks; all
// backpressure — finite VC buffers, finite injection queues, sinks that
// refuse flits — is modelled, which is what makes protocol deadlock a real,
// demonstrable phenomenon rather than an abstraction.
//
// The cycle kernel is event-sparse: Step walks an active set of routers
// (those holding buffered flits or occupied link registers) and an active
// set of injecting nodes, not the whole mesh. GPGPU NoC traffic is bursty
// and concentrated on the MC rows, so most routers on most cycles have
// nothing to do; the active set makes those routers free. The activity
// invariant — a router with any buffered flit, valid output register, or
// nonempty injection queue is always scheduled — is maintained by waking a
// router on every event that hands it work (a flit pushed into one of its
// buffers, a packet queued for injection) and only retiring it once both
// counters reach zero. A naive full-scan stepper is retained behind
// WithReferenceStepper (config: NoC.ReferenceStepper) and must produce
// bit-identical results; both steppers share every phase helper and iterate
// routers in ascending ID order, which pins the floating-point statistics
// accumulation order.
//
// A run steps on one goroutine; sweeps get their parallelism across jobs
// (DESIGN.md §11 gives the measurements behind that choice).
package noc

import (
	"fmt"
	"slices"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// Sink receives one flit ejected at a node. Returning false refuses the flit
// this cycle (it stays in the router and retries); the refusal propagates
// backpressure into the network.
type Sink func(f packet.Flit) bool

// Tracer observes packet lifecycle events. Implementations must be cheap:
// hooks run on the hot path (package trace provides buffered writers and an
// in-memory collector). A nil tracer costs one predictable branch.
type Tracer interface {
	// PacketInjected fires when a packet's head flit enters its source
	// router.
	PacketInjected(p *packet.Packet, cycle int64)
	// FlitHop fires for every flit crossing every inter-router link.
	FlitHop(f packet.Flit, l mesh.Link, cycle int64)
	// PacketEjected fires when a packet's tail flit reaches its sink.
	PacketEjected(p *packet.Packet, cycle int64)
}

// Interconnect is the interface endpoints drive. Network implements it for a
// single physical network; Dual implements it for the two-physical-subnets
// comparison of Section 4.2.
type Interconnect interface {
	// Inject queues a whole packet for injection at its source node. It
	// returns false when the node's injection queue lacks space; the caller
	// retries later (and experiences backpressure).
	Inject(p *packet.Packet) bool
	// InjectSpace returns the free flit slots in the node's injection queue.
	InjectSpace(node mesh.NodeID) int
	// SetSink installs the ejection callback for a node.
	SetSink(node mesh.NodeID, s Sink)
	// Step advances the network one cycle.
	Step()
	// Cycle returns the number of completed cycles.
	Cycle() int64
	// Stats returns the collector (merged across subnets for Dual).
	Stats() *stats.Net
	// EnableStats toggles measurement collection (off during warmup).
	EnableStats(on bool)
	// FlitsInFlight returns flits buffered anywhere in the fabric,
	// including injection queues.
	FlitsInFlight() int
	// Quiescent reports no movement for the trailing window cycles while
	// flits remain in flight — the deadlock watchdog.
	Quiescent(window int64) bool
	// CheckInvariants validates internal consistency (credit accounting and
	// flit conservation); the gpu sanitizer samples it during runs.
	CheckInvariants() error
	// AttachTelemetry registers the fabric's cycle-domain probes (per-link
	// flit counters by class, VC occupancy gauges, stall attribution) on
	// reg. A nil registry leaves the fabric un-instrumented: every probe
	// site then costs one predictable nil check, like a nil Tracer.
	AttachTelemetry(reg *telemetry.Registry)
	// SetSpans installs the per-packet span collector (nil disables span
	// tracing; like a nil Tracer, disabled tracing costs one predictable
	// nil check per probe site).
	SetSpans(sp *obs.Spans)
	// StateSnapshot captures per-link/per-VC occupancy and active-set
	// sizes. Callers must invoke it only at a cycle boundary (between
	// Step calls) so the kernel is never read mid-phase.
	StateSnapshot() obs.MeshState
	// FastForward advances the cycle counter by delta without stepping.
	// Callers must have established that the fabric is empty
	// (FlitsInFlight() == 0): an empty fabric is a fixed point of Step,
	// so skipping is observationally identical to stepping. Panics if
	// flits are in flight.
	FastForward(delta int64)
}

// injQueue is a node's bounded injection FIFO, in flits. Consumption
// advances a head index instead of re-slicing pkts, so the backing array is
// reused in steady state: Inject compacts the live tail down only when the
// array is full, and the slot of a consumed packet is nilled immediately so
// it does not pin the packet for the arena's lifetime.
type injQueue struct {
	pkts  []*packet.Packet // packets not yet fully injected, live from head
	head  int              // index of the front packet in pkts
	sent  int              // flits of the front packet already pushed into the router
	flits int              // total flits queued (for capacity accounting)
	cap   int
	vc    int // local input VC receiving the current packet
}

func (q *injQueue) empty() bool { return q.head == len(q.pkts) }

func (q *injQueue) popFront() {
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
}

// routeTabMaxNodes bounds the dense route-table precompute (NumClasses ×
// N² bytes); beyond it RC falls back to the algorithm call.
const routeTabMaxNodes = 1024

// Network is a single physical mesh NoC.
type Network struct {
	m        mesh.Mesh
	alg      routing.Algorithm
	pol      vc.Assigner
	vcs      int
	depth    int
	numNodes int

	// pipeDelay is the minimum number of cycles between a flit's arrival in
	// an input buffer and its switch traversal; 2 models the paper's
	// two-stage router (RC/VA/SA in one cycle, ST in the next).
	pipeDelay int64
	// injRate is the node-to-router ingress bandwidth in flits/cycle.
	injRate int
	// linkPeriod is the cycles one flit occupies a link: 1 models the
	// full-width channel; 2 models the half-width channels of an
	// equal-resource physical subnet (Section 4.2).
	linkPeriod int64
	// reference selects the naive full-scan stepper instead of the
	// active-set kernel; results must be bit-identical.
	reference bool

	routers []router
	inj     []injQueue
	sinks   []Sink

	// Active sets: dense ID lists of routers with work and nodes with
	// queued injections, with their membership marks. Sorted ascending at
	// the top of each phase so iteration order matches the reference full
	// scan; compacted by finishCycle when the work drains.
	active    []int32
	injActive []int32
	activeIn  []bool
	injIn     []bool

	// creditDirty lists output ports with credits returned this cycle
	// (accumulated in outPort.pending); finishCycle applies them.
	creditDirty []*outPort

	// routeTab caches the routing algorithm per (class, current, dest):
	// NextHop is a pure function of those three, so RC becomes one array
	// load instead of an interface call. nil when the mesh exceeds
	// routeTabMaxNodes.
	routeTab [packet.NumClasses][]uint8
	// injRng caches the injection VC range per (node, class).
	injRng [][packet.NumClasses]vc.Range

	stats    *stats.Net
	tracer   Tracer
	tel      *telemetry.NetProbes
	spans    *obs.Spans
	cycle    int64
	moved    bool
	lastMove int64
	inFlight int // flits inside routers + injection queues
}

// Option tweaks network construction.
type Option func(*Network)

// WithPipelineDelay overrides the minimum buffer-to-switch residency in
// cycles (default 2, the two-stage router of Section 2.2; 1 gives an
// aggressive single-cycle router for ablations).
func WithPipelineDelay(d int) Option {
	return func(n *Network) { n.pipeDelay = int64(d) }
}

// WithLinkPeriod sets the cycles one flit occupies a link (default 1). Use
// 2 to model half-width channels, e.g. an equal-wire-budget physical
// subnetwork.
func WithLinkPeriod(p int) Option {
	return func(n *Network) {
		if p < 1 {
			p = 1
		}
		n.linkPeriod = int64(p)
	}
}

// WithInjectionQueue overrides the per-node injection queue capacity in
// flits (default 16).
func WithInjectionQueue(flits int) Option {
	return func(n *Network) {
		for i := range n.inj {
			n.inj[i].cap = flits
		}
	}
}

// WithReferenceStepper selects the naive stepper that scans every router
// and every node each cycle. It exists to validate the active-set kernel:
// the two must produce bit-identical statistics, telemetry, and cycle
// counts for any workload. Config files and CLIs reach it through
// NoC.ReferenceStepper.
func WithReferenceStepper() Option {
	return func(n *Network) { n.reference = true }
}

// New builds the network described by cfg with the given routing algorithm
// and VC assigner (a vc.Policy or a link-aware partial-monopolizing
// assigner). The caller is responsible for having validated the assigner
// against the placement via the core package when safety matters;
// deliberately unsafe configurations are allowed (and will deadlock).
func New(cfg config.NoC, alg routing.Algorithm, pol vc.Assigner, opts ...Option) *Network {
	m := mesh.New(cfg.Width, cfg.Height)
	nn := m.NumNodes()
	n := &Network{
		m:          m,
		alg:        alg,
		pol:        pol,
		vcs:        cfg.VCsPerPort,
		depth:      cfg.VCDepth,
		numNodes:   nn,
		pipeDelay:  2,
		injRate:    max(1, cfg.InjectionFlitsPerCycle),
		linkPeriod: 1,
		reference:  cfg.ReferenceStepper,
		routers:    make([]router, nn),
		inj:        make([]injQueue, nn),
		sinks:      make([]Sink, nn),
		activeIn:   make([]bool, nn),
		injIn:      make([]bool, nn),
		injRng:     make([][packet.NumClasses]vc.Range, nn),
		stats:      stats.NewNet(m),
	}
	arena := newRouterArena(nn, n.vcs, n.depth)
	for id := range n.routers {
		rt := &n.routers[id]
		rt.init(mesh.NodeID(id), m, n.vcs, n.depth, arena)
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			l := mesh.Link{From: rt.id, Dir: d}
			op.rng[packet.Request] = pol.RangeFor(l, op.orient, packet.Request)
			op.rng[packet.Reply] = pol.RangeFor(l, op.orient, packet.Reply)
		}
		for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
			n.injRng[id][cls] = pol.RangeFor(mesh.Link{From: mesh.NodeID(id), Dir: mesh.Local}, mesh.LocalPort, cls)
		}
	}
	// Second pass: wire each input port to the upstream output port feeding
	// it, so credit returns are a pointer bump. The routers slice never
	// reallocates, so the pointers stay valid (telemetry GaugeFuncs rely on
	// the same stability).
	for id := range n.routers {
		rt := &n.routers[id]
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if op.exists {
				n.routers[op.downNode].upstream[op.downPort] = op
			}
		}
	}
	if nn <= routeTabMaxNodes {
		for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
			tab := make([]uint8, nn*nn)
			for cur := 0; cur < nn; cur++ {
				cc := m.Coord(mesh.NodeID(cur))
				for dst := 0; dst < nn; dst++ {
					tab[cur*nn+dst] = uint8(alg.NextHop(cc, m.Coord(mesh.NodeID(dst)), cls))
				}
			}
			n.routeTab[cls] = tab
		}
	}
	for i := range n.inj {
		n.inj[i].cap = 16
		n.inj[i].vc = -1
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Mesh returns the topology.
func (n *Network) Mesh() mesh.Mesh { return n.m }

// Stats returns the statistics collector.
func (n *Network) Stats() *stats.Net { return n.stats }

// EnableStats toggles measurement collection.
func (n *Network) EnableStats(on bool) { n.stats.Enabled = on }

// Cycle returns the current cycle count.
func (n *Network) Cycle() int64 { return n.cycle }

// FlitsInFlight returns the number of flits buffered in the fabric.
func (n *Network) FlitsInFlight() int { return n.inFlight }

// Quiescent reports whether nothing has moved for window cycles with flits
// still in flight: the protocol-deadlock watchdog.
func (n *Network) Quiescent(window int64) bool {
	return n.inFlight > 0 && n.cycle-n.lastMove >= window
}

// FastForward advances the cycle counter by delta without stepping. An
// empty fabric is a fixed point of Step — no injections, pipelines, link
// traversals, or credit returns can occur, and finishCycle would only
// advance the counter — so the jump is observationally identical to delta
// empty Steps. lastMove is deliberately left alone: empty Steps would not
// have moved anything either.
func (n *Network) FastForward(delta int64) {
	if delta <= 0 {
		return
	}
	if n.inFlight != 0 {
		panic("noc: FastForward with flits in flight")
	}
	n.cycle += delta
	n.stats.Cycles = n.cycle
}

// wake adds a router to the active set; idempotent and O(1).
func (n *Network) wake(id mesh.NodeID) {
	if !n.activeIn[id] {
		n.activeIn[id] = true
		n.active = append(n.active, int32(id)) //noclint:hotpath amortized: active keeps its backing array across compactions
	}
}

// wakeInj adds a node to the injection-active set; idempotent and O(1).
func (n *Network) wakeInj(id mesh.NodeID) {
	if !n.injIn[id] {
		n.injIn[id] = true
		n.injActive = append(n.injActive, int32(id))
	}
}

// Inject queues p at its source node. The packet's CreatedAt should already
// be stamped by the caller; InjectedAt is stamped when the head flit enters
// the router.
func (n *Network) Inject(p *packet.Packet) bool {
	q := &n.inj[p.Src]
	if q.flits+p.Flits > q.cap {
		return false
	}
	if q.head > 0 && len(q.pkts) == cap(q.pkts) {
		// Compact the live tail down instead of growing the backing array.
		live := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[live:])
		q.pkts = q.pkts[:live]
		q.head = 0
	}
	q.pkts = append(q.pkts, p)
	q.flits += p.Flits
	n.inFlight += p.Flits
	n.wakeInj(mesh.NodeID(p.Src))
	if n.spans != nil {
		n.spans.Offer(p)
	}
	return true
}

// InjectSpace returns free flit slots in the node's injection queue.
func (n *Network) InjectSpace(node mesh.NodeID) int {
	q := &n.inj[node]
	return q.cap - q.flits
}

// SetSink installs the ejection callback for node.
func (n *Network) SetSink(node mesh.NodeID, s Sink) { n.sinks[node] = s }

// SetTracer installs a lifecycle observer (nil disables tracing).
func (n *Network) SetTracer(tr Tracer) { n.tracer = tr }

// SetSpans installs the per-packet span collector (nil disables span
// tracing). Probe sites gate on the collector pointer and the packet's
// Sampled bit, so tracing off costs one branch per site.
func (n *Network) SetSpans(sp *obs.Spans) { n.spans = sp }

// StateSnapshot captures the fabric's occupancy for the /state endpoint.
// Call only at a cycle boundary.
func (n *Network) StateSnapshot() obs.MeshState {
	st := n.subnetState("")
	return obs.MeshState{
		Cycle:    n.cycle,
		Width:    n.m.Width,
		Height:   n.m.Height,
		InFlight: n.inFlight,
		Subnets:  []obs.SubnetState{st},
	}
}

// subnetState snapshots one physical network under a subnet name.
func (n *Network) subnetState(name string) obs.SubnetState {
	st := obs.SubnetState{
		Subnet:          name,
		Cycle:           n.cycle,
		InFlight:        n.inFlight,
		ActiveRouters:   len(n.active),
		ActiveInjectors: len(n.injActive),
		Links:           make([]obs.LinkState, 0, len(n.routers)*mesh.NumLinkDirs),
		Nodes:           make([]obs.NodeState, 0, len(n.routers)),
	}
	for i := range n.routers {
		rt := &n.routers[i]
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			ls := obs.LinkState{
				From:    i,
				To:      int(op.downNode),
				Dir:     d.String(),
				VCs:     make([]int, n.vcs),
				RegBusy: op.regValid,
			}
			down := &n.routers[op.downNode]
			for v := 0; v < n.vcs; v++ {
				ls.VCs[v] = down.in[op.downPort][v].buf.len()
			}
			st.Links = append(st.Links, ls)
		}
		c := n.m.Coord(rt.id)
		ns := obs.NodeState{
			Node:     i,
			Row:      c.Row,
			Col:      c.Col,
			InjQ:     n.inj[i].flits,
			LocalVCs: make([]int, n.vcs),
		}
		for v := 0; v < n.vcs; v++ {
			ns.LocalVCs[v] = rt.in[mesh.Local][v].buf.len()
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// AttachTelemetry registers this network's probe set on reg (nil is a
// no-op). Counting sites are gated on one nil check; instantaneous levels
// (VC occupancy, injection-queue backlog) are GaugeFuncs read only when the
// epoch sampler fires, so they cost nothing per cycle.
func (n *Network) AttachTelemetry(reg *telemetry.Registry) {
	n.attachTelemetry(reg, "")
}

// attachTelemetry is AttachTelemetry with a probe-name prefix, so the two
// subnets of a Dual register disjoint names ("req.", "rep.").
func (n *Network) attachTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	n.tel = telemetry.NewNetProbes(reg, n.m, prefix)
	// Buffer-fill gauges live here because VC buffers are router-private:
	// one GaugeFunc per (link, VC) reading the downstream input buffer, and
	// one per node reading the injection-queue backlog.
	for i := range n.routers {
		rt := &n.routers[i]
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			stem := prefix + telemetry.LinkName(n.m, mesh.Link{From: rt.id, Dir: d})
			for v := 0; v < n.vcs; v++ {
				buf := &n.routers[op.downNode].in[op.downPort][v].buf
				reg.GaugeFunc(fmt.Sprintf("%s.vc%d.occupancy", stem, v),
					func() int64 { return int64(buf.len()) })
			}
		}
	}
	for id := range n.inj {
		q := &n.inj[id]
		reg.GaugeFunc(fmt.Sprintf("%snode.%d.injq.flits", prefix, id),
			func() int64 { return int64(q.flits) })
	}
}

// sinkAccept offers f to the node's sink; true means the sink consumed it.
func (n *Network) sinkAccept(node mesh.NodeID, f packet.Flit) bool {
	s := n.sinks[node]
	if s == nil {
		panic(fmt.Sprintf("noc: ejection at node %d with no sink", node))
	}
	return s(f)
}

// queueCredit defers a credit increment to the end of the cycle, modelling
// a one-cycle credit loop uniformly regardless of router iteration order.
// The credit lands in the upstream output port's pending tally; finishCycle
// applies dirty tallies.
//
//noclint:hotpath root: credit tally, once per flit moved through the switch
func (n *Network) queueCredit(rt *router, inPort mesh.Direction, vcIdx int) {
	op := rt.upstream[inPort]
	if op == nil {
		panic("noc: credit return for a port with no upstream link")
	}
	op.pending[vcIdx]++
	if !op.dirty {
		op.dirty = true
		n.creditDirty = append(n.creditDirty, op) //noclint:hotpath amortized: creditDirty keeps its backing array across finishCycle's [:0] reset
	}
}

// injectNode moves up to injRate flits from the node's injection queue into
// local input VCs of its router.
func (n *Network) injectNode(id int) {
	q := &n.inj[id]
	if q.empty() {
		return
	}
	rt := &n.routers[id]
	for budget := n.injRate; budget > 0 && !q.empty(); {
		p := q.pkts[q.head]
		if q.sent == 0 {
			// Pick the allowed local VC with the most free space; any
			// choice is correct (flits within a VC stay FIFO), emptiest
			// balances load.
			r := n.injRng[id][p.Class()]
			best, bestFree := -1, 0
			for v := r.Lo; v < r.Hi; v++ {
				if free := rt.in[mesh.Local][v].buf.free(); free > bestFree {
					best, bestFree = v, free
				}
			}
			if best == -1 {
				break // all local VCs full; retry next cycle
			}
			q.vc = best
			p.InjectedAt = n.cycle
			n.stats.CountInjection(p)
			if n.tracer != nil {
				n.tracer.PacketInjected(p, n.cycle)
			}
			if n.spans != nil && p.Sampled {
				n.spans.Injected(p, best, n.cycle)
			}
		}
		ivc := &rt.in[mesh.Local][q.vc]
		for budget > 0 && q.sent < p.Flits && ivc.buf.free() > 0 {
			f := packet.Flit{Pkt: p, Seq: q.sent, Head: q.sent == 0, Tail: q.sent == p.Flits-1}
			ivc.buf.push(f, n.cycle)
			rt.bufFlits++
			rt.portFlits[mesh.Local]++
			n.wake(rt.id)
			q.sent++
			q.flits--
			budget--
			n.moved = true
			if n.tel != nil {
				n.tel.InjFlits[id].Inc()
			}
		}
		if q.sent < p.Flits {
			break // out of budget or VC space mid-packet
		}
		q.popFront()
		q.sent = 0
		q.vc = -1
	}
}

// linkPhase delivers this router's completed link traversals: flits whose
// link occupancy has elapsed arrive at downstream buffers, waking the
// downstream router. A half-width link (period 2) holds each flit an extra
// cycle, blocking the next switch traversal through that port.
func (n *Network) linkPhase(rt *router) {
	for d := mesh.North; d < mesh.Local; d++ {
		op := &rt.out[d]
		if !op.exists || !op.regValid || op.regReadyAt > n.cycle {
			continue
		}
		down := &n.routers[op.downNode]
		down.in[op.downPort][op.regVC].buf.push(op.reg, n.cycle)
		down.bufFlits++
		down.portFlits[op.downPort]++
		n.wake(op.downNode)
		op.regValid = false
		rt.regCount--
	}
}

// finishCycle ends every step: it applies this cycle's credit returns,
// compacts the active sets and advances the cycle. Routers retire only when
// they hold no buffered flits and no occupied link register; nodes retire
// when their injection queue drains. Everything that re-arms activity
// (buffer pushes, Inject) wakes the target, so retirement can never strand
// work.
func (n *Network) finishCycle() {
	for _, op := range n.creditDirty {
		for v, pend := range op.pending {
			if pend != 0 {
				op.credits[v] += pend
				op.pending[v] = 0
			}
		}
		op.dirty = false
	}
	n.creditDirty = n.creditDirty[:0]

	w := 0
	for _, id := range n.active {
		rt := &n.routers[id]
		if rt.bufFlits > 0 || rt.regCount > 0 {
			n.active[w] = id
			w++
		} else {
			n.activeIn[id] = false
		}
	}
	n.active = n.active[:w]
	w = 0
	for _, id := range n.injActive {
		if !n.inj[id].empty() {
			n.injActive[w] = id
			w++
		} else {
			n.injIn[id] = false
		}
	}
	n.injActive = n.injActive[:w]

	if n.moved {
		n.lastMove = n.cycle
	}
	n.cycle++
	n.stats.Cycles = n.cycle
}

// Step advances the network by one cycle: injection, router pipelines
// (RC/VA/SA/ST), then link traversal, and finally finishCycle (credit
// returns, compaction). Only active routers and injecting nodes are
// visited, in ascending id order — exactly the order the reference full
// scan produces, so endpoint callbacks and statistics accumulate
// identically.
func (n *Network) Step() {
	if n.reference {
		n.stepReference()
		return
	}
	n.moved = false
	n.injectPhase()
	k, dense := n.routerPhase()
	n.linkPhaseActive(k, dense)
	n.finishCycle()
}

// injectPhase drains injection queues, ascending. Sparse sets are sorted
// and walked directly; once a set covers a quarter of the mesh, a full
// ascending scan through the same emptiness gate is cheaper than sorting,
// and visits the same nodes in the same order.
//
//noclint:hotpath root: per-cycle injection phase of the cycle kernel
func (n *Network) injectPhase() {
	if len(n.injActive)*4 >= n.numNodes {
		for id := range n.inj {
			if !n.inj[id].empty() {
				n.injectNode(id)
			}
		}
	} else {
		slices.Sort(n.injActive)
		for _, id := range n.injActive {
			n.injectNode(int(id))
		}
	}
}

// routerPhase runs RC/VA/SA/ST for the active routers, ascending. The sort
// happens after injection so routers woken by this cycle's injected flits
// are visited, exactly as the reference scan would. It returns the walk it
// chose — a dense scan, or the length of the sorted active prefix — for the
// link phase to repeat.
//
//noclint:hotpath root: per-cycle router step (RC/VA/SA/ST)
func (n *Network) routerPhase() (k int, dense bool) {
	if len(n.active)*4 >= n.numNodes {
		// Dense: the gates (bufFlits, regCount) are live counters, so this
		// is the reference loop minus its no-op visits.
		for i := range n.routers {
			rt := &n.routers[i]
			if rt.bufFlits == 0 {
				continue
			}
			n.routeCompute(rt)
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(rt)
		}
		return 0, true
	}
	// Sparse: snapshot the sorted active prefix; wakes during the phases
	// append routers that, by construction, have no switch work or link
	// register to process this cycle.
	slices.Sort(n.active)
	k = len(n.active)
	for i := 0; i < k; i++ {
		rt := &n.routers[n.active[i]]
		if rt.bufFlits == 0 {
			continue // only a link register in flight; nothing to arbitrate
		}
		n.routeCompute(rt)
		n.vcAllocate(rt)
		n.switchAllocateAndTraverse(rt)
	}
	return k, false
}

// linkPhaseActive delivers completed link traversals, walking the same
// routers the router phase did.
//
//noclint:hotpath root: per-cycle link traversal phase
func (n *Network) linkPhaseActive(k int, dense bool) {
	if dense {
		for i := range n.routers {
			rt := &n.routers[i]
			if rt.regCount > 0 {
				n.linkPhase(rt)
			}
		}
		return
	}
	for i := 0; i < k; i++ {
		rt := &n.routers[n.active[i]]
		if rt.regCount > 0 {
			n.linkPhase(rt)
		}
	}
}

// stepReference is the naive stepper: every node and every router, every
// cycle. It shares all phase helpers (and therefore all bookkeeping —
// active-set maintenance included) with the event-sparse kernel; only the
// iteration differs. Equivalence tests hold the two bit-identical.
func (n *Network) stepReference() {
	n.moved = false
	for id := range n.inj {
		n.injectNode(id)
	}
	for i := range n.routers {
		rt := &n.routers[i]
		n.routeCompute(rt)
		n.vcAllocate(rt)
		n.switchAllocateAndTraverse(rt)
	}
	for i := range n.routers {
		n.linkPhase(&n.routers[i])
	}
	n.finishCycle()
}

// Drain runs the network until no flits remain in flight or maxCycles pass;
// it returns true if the network drained. Useful in tests.
func (n *Network) Drain(maxCycles int) bool {
	for i := 0; i < maxCycles && n.inFlight > 0; i++ {
		n.Step()
	}
	return n.inFlight == 0
}

// CheckInvariants validates internal consistency; tests call it after
// stepping and the gpu sanitizer samples it during runs. It recounts, from
// buffer state alone: credit accounting per (output port, VC) — now against
// the per-port pending tally, not a scan of a credit event list — flit
// conservation, every router's redundant occupancy counters, and the
// active-set invariant (any router or node holding work must be scheduled).
func (n *Network) CheckInvariants() error {
	count := 0
	for i := range n.routers {
		rt := &n.routers[i]
		bufFlits, regCount, vaReq := 0, 0, 0
		var portFlits, demand [mesh.NumPorts]int
		for p := 0; p < mesh.NumPorts; p++ {
			for v := range rt.in[p] {
				ivc := &rt.in[p][v]
				occ := ivc.buf.len()
				count += occ
				bufFlits += occ
				portFlits[p] += occ
				if ivc.routed {
					demand[ivc.route]++
					if ivc.route != mesh.Local && ivc.outVC == -1 {
						vaReq++
					}
				}
			}
		}
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			if op.regValid {
				count++
				regCount++
			}
			down := &n.routers[op.downNode]
			for vcIdx, cr := range op.credits {
				occ := down.in[op.downPort][vcIdx].buf.len()
				pending := op.pending[vcIdx]
				inReg := 0
				if op.regValid && op.regVC == vcIdx {
					inReg = 1
				}
				if cr+occ+pending+inReg != n.depth {
					return fmt.Errorf("noc: credit leak at %v out %s vc %d: credits %d + occupancy %d + pending %d + reg %d != depth %d",
						rt.coord, d, vcIdx, cr, occ, pending, inReg, n.depth)
				}
			}
		}
		if bufFlits != rt.bufFlits || regCount != rt.regCount {
			return fmt.Errorf("noc: occupancy counters at %v: bufFlits %d (counted %d), regCount %d (counted %d)",
				rt.coord, rt.bufFlits, bufFlits, rt.regCount, regCount)
		}
		if portFlits != rt.portFlits || demand != rt.demand || vaReq != rt.vaReq {
			return fmt.Errorf("noc: scheduling counters at %v: portFlits %v (counted %v), demand %v (counted %v), vaReq %d (counted %d)",
				rt.coord, rt.portFlits, portFlits, rt.demand, demand, rt.vaReq, vaReq)
		}
		if (bufFlits > 0 || regCount > 0) && !n.activeIn[i] {
			return fmt.Errorf("noc: active-set invariant broken: router %v holds work (%d flits, %d regs) but is not scheduled",
				rt.coord, bufFlits, regCount)
		}
	}
	for i := range n.inj {
		count += n.inj[i].flits
		if !n.inj[i].empty() && !n.injIn[i] {
			return fmt.Errorf("noc: active-set invariant broken: node %d has queued packets but is not scheduled for injection", i)
		}
	}
	if count != n.inFlight {
		return fmt.Errorf("noc: flit conservation broken: counted %d, tracked %d", count, n.inFlight)
	}
	return nil
}
