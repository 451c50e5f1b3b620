package obs

import (
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// Observer receives the simulator's instrumentation event stream. Every
// event kind is emitted at exactly one site in the fabric or the memory
// controller, behind one nil check on the component's observer field, so
// an uninstrumented run pays one predictable branch per site.
//
// The observation passed in is the emitter's own reusable slot, valid only
// for the duration of the call: subscribers must not modify it and copy
// what they keep. Observers run on the simulation goroutine, on the hot
// path: they must be cheap and must never feed back into simulation state
// other than the packet's Sampled bit, which only Spans writes.
//
// Telemetry counting, sampled spans and the packet-trace CSV are the
// subscribers; Tee composes them.
type Observer interface {
	Observe(o *Observation)
}

// Observation is one typed instrumentation event. The kinds are the span
// event kinds; which fields are meaningful depends on the kind:
//
//	EvCreated     Pkt queued for injection (Network.Inject)
//	EvInjected    Flit pushed into its source router; Node, VC = local input VC
//	EvVCGrant     head of Pkt won output VC VC at router Node toward To
//	EvStall       front flit of Pkt could not move at router Node; Cause
//	EvHop         Flit entered the link Node->To through output Dir on VC VC
//	EvEjected     Flit left the fabric at router Node
//	EvMCService   L2 lookup of request Pkt at MC node Node; Hit = L2 hit
//	EvDRAMQueued  request Pkt entered the DRAM queue of MC node Node
//	EvDRAMIssue   DRAM issued Pkt's command: Bank, Hit = row hit
//	EvDRAMDone    DRAM burst for Pkt completed
//	EvReply       MC created Reply for request Pkt
//
// Packet-level kinds set only Flit.Pkt; flit-level kinds (injected, hop,
// ejected) fire once per flit and carry the whole flit, so subscribers
// that want packet granularity filter on Flit.Head or Flit.Tail.
type Observation struct {
	Flit  packet.Flit
	Reply *packet.Packet
	Cycle int64
	Node  int
	To    int
	VC    int
	Bank  int
	Kind  EventKind
	Dir   mesh.Direction
	Cause StallCause
	Hit   bool
}

// Tee fans each observation out to its subscribers, in subscription order.
type Tee []Observer

// Observe implements Observer.
func (t Tee) Observe(o *Observation) {
	for _, s := range t {
		s.Observe(o)
	}
}

// Subscribe returns the observer that delivers to cur and then to o. A nil
// cur yields o itself, so a single subscriber costs no fan-out; further
// subscribers extend one flat Tee.
func Subscribe(cur, o Observer) Observer {
	switch t := cur.(type) {
	case nil:
		return o
	case Tee:
		return append(t[:len(t):len(t)], o)
	default:
		return Tee{cur, o}
	}
}
