// Package trace records packet and flit lifecycle events from the NoC for
// offline analysis: a streaming CSV writer for external tooling, and an
// in-memory collector with latency/path analysis used by tests and the
// traceview tool.
//
// Both are obs.Observer subscribers to the fabric's event stream (subscribe
// with noc.Interconnect.Observe); they keep the packet injections, every
// flit hop, and the packet ejections.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
)

// Kind labels an event.
type Kind uint8

// Event kinds.
const (
	Injected Kind = iota
	Hop
	Ejected
)

var kindNames = [3]string{"inject", "hop", "eject"}

// String names the kind.
func (k Kind) String() string { return kindNames[k] }

// Event is one recorded occurrence.
type Event struct {
	Cycle  int64
	Kind   Kind
	Packet uint64
	Type   packet.Type
	Src    int
	Dst    int
	Seq    int       // flit sequence for Hop events
	Link   mesh.Link // valid for Hop events
}

// CSVWriter streams events as CSV rows; it is an obs.Observer.
type CSVWriter struct {
	w   *bufio.Writer
	err error
}

// NewCSVWriter wraps w and emits the header row.
func NewCSVWriter(w io.Writer) *CSVWriter {
	cw := &CSVWriter{w: bufio.NewWriter(w)}
	_, cw.err = fmt.Fprintln(cw.w, "cycle,event,packet,type,src,dst,seq,link_from,link_dir")
	return cw
}

func (cw *CSVWriter) row(cycle int64, kind Kind, p *packet.Packet, seq int, link string) {
	if cw.err != nil {
		return
	}
	_, cw.err = fmt.Fprintf(cw.w, "%d,%s,%d,%s,%d,%d,%d,%s\n",
		cycle, kind, p.ID, p.Type, p.Src, p.Dst, seq, link)
}

// Observe implements obs.Observer.
func (cw *CSVWriter) Observe(o *obs.Observation) {
	p := o.Flit.Pkt
	switch {
	case o.Kind == obs.EvInjected && o.Flit.Head:
		cw.row(o.Cycle, Injected, p, 0, ",")
	case o.Kind == obs.EvHop:
		cw.row(o.Cycle, Hop, p, o.Flit.Seq, fmt.Sprintf("%d,%s", o.Node, o.Dir))
	case o.Kind == obs.EvEjected && o.Flit.Tail:
		cw.row(o.Cycle, Ejected, p, p.Flits-1, ",")
	}
}

// Flush drains buffered rows and reports the first write error.
func (cw *CSVWriter) Flush() error {
	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
}

// Collector retains events in memory; it is an obs.Observer.
type Collector struct {
	Events []Event
	// HopsOnly limits collection to Hop events when set (packet events are
	// reconstructable from first/last hops for single-path routing).
	HopsOnly bool
}

// Observe implements obs.Observer. An ejection's Seq carries the tail flit
// index, matching the CSV form so parsed and live collectors are
// interchangeable.
func (c *Collector) Observe(o *obs.Observation) {
	p := o.Flit.Pkt
	e := Event{Cycle: o.Cycle, Packet: p.ID, Type: p.Type, Src: p.Src, Dst: p.Dst}
	switch {
	case o.Kind == obs.EvHop:
		e.Kind, e.Seq, e.Link = Hop, o.Flit.Seq, mesh.Link{From: mesh.NodeID(o.Node), Dir: o.Dir}
	case c.HopsOnly:
		return
	case o.Kind == obs.EvInjected && o.Flit.Head:
		e.Kind = Injected
	case o.Kind == obs.EvEjected && o.Flit.Tail:
		e.Kind, e.Seq = Ejected, p.Flits-1
	default:
		return
	}
	c.Events = append(c.Events, e)
}

// Latency is an end-to-end packet observation.
type Latency struct {
	Packet   uint64
	Type     packet.Type
	Injected int64
	Ejected  int64
}

// Cycles returns the packet's in-network latency.
func (l Latency) Cycles() int64 { return l.Ejected - l.Injected }

// Latencies pairs inject/eject events per packet, sorted by ejection time.
// Packets still in flight at the end of the trace are omitted.
func (c *Collector) Latencies() []Latency {
	inject := map[uint64]Event{}
	var out []Latency
	for _, e := range c.Events {
		switch e.Kind {
		case Injected:
			inject[e.Packet] = e
		case Ejected:
			if in, ok := inject[e.Packet]; ok {
				out = append(out, Latency{Packet: e.Packet, Type: e.Type,
					Injected: in.Cycle, Ejected: e.Cycle})
				delete(inject, e.Packet)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ejected < out[j].Ejected })
	return out
}

// Path returns the links packet id's head flit traversed, in order.
func (c *Collector) Path(id uint64) []mesh.Link {
	var links []mesh.Link
	for _, e := range c.Events {
		if e.Kind == Hop && e.Packet == id && e.Seq == 0 {
			links = append(links, e.Link)
		}
	}
	return links
}

// HopHistogram counts head-flit hops per delivered packet.
func (c *Collector) HopHistogram() map[int]int {
	hops := map[uint64]int{}
	var order []uint64
	for _, e := range c.Events {
		if e.Kind == Hop && e.Seq == 0 {
			if hops[e.Packet] == 0 {
				order = append(order, e.Packet)
			}
			hops[e.Packet]++
		}
	}
	hist := map[int]int{}
	for _, id := range order {
		hist[hops[id]]++
	}
	return hist
}
