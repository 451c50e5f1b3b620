package noc

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// Dual models the two-physical-subnetworks design of prior work ([11] in
// the paper): one physical mesh carries only requests, the other only
// replies, each with half the VC resources of the single-network baseline.
// Section 4.2 compares this against one network with VC separation and finds
// the logical split performs within noise, at half the router/wire cost.
type Dual struct {
	request *Network
	reply   *Network
	merged  *stats.Net
}

// NewDual builds two class-dedicated subnets from cfg: each subnet gets
// VCsPerPort/2 VCs and needs no class partitioning internally (a single
// class cannot protocol-deadlock against itself under dimension-order
// routing). By default each subnet keeps full-width channels — the doubled
// router/wire budget the paper's reference [11] pays and Section 4.2
// compares against; pass WithLinkPeriod(2) for an equal-wire-budget split
// with half-width channels.
func NewDual(cfg config.NoC, alg routing.Algorithm, opts ...Option) *Dual {
	sub := cfg
	sub.VCsPerPort = cfg.VCsPerPort / 2
	if sub.VCsPerPort == 0 {
		sub.VCsPerPort = 1
	}
	sub.VCPolicy = config.VCShared
	pol := vc.MustNewPolicy(sub)
	return &Dual{
		request: New(sub, alg, pol, opts...),
		reply:   New(sub, alg, pol, opts...),
		merged:  stats.NewNet(mesh.New(cfg.Width, cfg.Height)),
	}
}

func (d *Dual) subnet(cls packet.Class) *Network {
	if cls == packet.Request {
		return d.request
	}
	return d.reply
}

// Inject queues the packet on its class's subnet.
func (d *Dual) Inject(p *packet.Packet) bool { return d.subnet(p.Class()).Inject(p) }

// InjectSpace returns the smaller of the two subnets' injection spaces; the
// caller does not know which class it will inject next, so be conservative.
func (d *Dual) InjectSpace(node mesh.NodeID) int {
	rq, rp := d.request.InjectSpace(node), d.reply.InjectSpace(node)
	if rq < rp {
		return rq
	}
	return rp
}

// SetSink installs the sink on both subnets.
func (d *Dual) SetSink(node mesh.NodeID, s Sink) {
	d.request.SetSink(node, s)
	d.reply.SetSink(node, s)
}

// Step advances both subnets one cycle.
func (d *Dual) Step() {
	d.request.Step()
	d.reply.Step()
}

// FastForward advances both subnets' cycle counters by delta; the caller
// must have established that both are empty (FlitsInFlight() == 0).
func (d *Dual) FastForward(delta int64) {
	d.request.FastForward(delta)
	d.reply.FastForward(delta)
}

// Cycle returns the completed cycle count.
func (d *Dual) Cycle() int64 { return d.request.Cycle() }

// Stats returns a merged view of both subnets' statistics. The merge is
// recomputed on each call; experiments read it once after the run.
func (d *Dual) Stats() *stats.Net {
	d.merged.Reset()
	d.merged.Enabled = d.request.stats.Enabled
	d.merged.Cycles = d.request.stats.Cycles
	for _, src := range []*stats.Net{d.request.Stats(), d.reply.Stats()} {
		for t := 0; t < packet.NumTypes; t++ {
			d.merged.InjectedPackets[t] += src.InjectedPackets[t]
			d.merged.InjectedFlits[t] += src.InjectedFlits[t]
			d.merged.EjectedPackets[t] += src.EjectedPackets[t]
			d.merged.EjectedFlits[t] += src.EjectedFlits[t]
		}
		for c := 0; c < packet.NumClasses; c++ {
			for i, v := range src.LinkFlits[c] {
				d.merged.LinkFlits[c][i] += v
			}
			d.merged.TotalLatency[c].Merge(&src.TotalLatency[c])
			d.merged.NetLatency[c].Merge(&src.NetLatency[c])
		}
	}
	return d.merged
}

// EnableStats toggles collection on both subnets.
func (d *Dual) EnableStats(on bool) {
	d.request.EnableStats(on)
	d.reply.EnableStats(on)
}

// FlitsInFlight sums both subnets.
func (d *Dual) FlitsInFlight() int {
	return d.request.FlitsInFlight() + d.reply.FlitsInFlight()
}

// AttachTelemetry instruments both subnets with disjoint probe names: the
// request subnet's probes carry the "req." prefix, the reply subnet's
// "rep.". Exporters and Summarize merge the two per link.
func (d *Dual) AttachTelemetry(reg *telemetry.Registry) {
	d.request.attachTelemetry(reg, "req.")
	d.reply.attachTelemetry(reg, "rep.")
}

// SetSpans installs one span collector on both subnets. The sampling hash
// is a pure function of the packet ID, so a transaction's request (on one
// subnet) and reply (on the other) land in the same trace.
func (d *Dual) SetSpans(sp *obs.Spans) {
	d.request.SetSpans(sp)
	d.reply.SetSpans(sp)
}

// StateSnapshot captures both subnets under the "req"/"rep" names. Call
// only at a cycle boundary (after both subnets stepped).
func (d *Dual) StateSnapshot() obs.MeshState {
	return obs.MeshState{
		Cycle:    d.request.cycle,
		Width:    d.request.m.Width,
		Height:   d.request.m.Height,
		InFlight: d.FlitsInFlight(),
		Subnets: []obs.SubnetState{
			d.request.subnetState("req"),
			d.reply.subnetState("rep"),
		},
	}
}

// Quiescent reports deadlock only if the whole system is stuck: flits exist
// and neither subnet has moved recently.
// CheckInvariants validates both subnets, naming the one that failed.
func (d *Dual) CheckInvariants() error {
	if err := d.request.CheckInvariants(); err != nil {
		return fmt.Errorf("noc: request subnet: %w", err)
	}
	if err := d.reply.CheckInvariants(); err != nil {
		return fmt.Errorf("noc: reply subnet: %w", err)
	}
	return nil
}

func (d *Dual) Quiescent(window int64) bool {
	if d.FlitsInFlight() == 0 {
		return false
	}
	stuck := func(n *Network) bool {
		return n.inFlight == 0 || n.cycle-n.lastMove >= window
	}
	return stuck(d.request) && stuck(d.reply)
}
